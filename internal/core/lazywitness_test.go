package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// lazyDB generates n deterministic records with values in [0, 2^bits).
func lazyDB(n, bits int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	db := make([]Record, n)
	for i := range db {
		db[i] = NewRecord(uint64(i+1), rng.Uint64()%(1<<bits))
	}
	return db
}

// lazyAndOnDemand builds two clouds over the same owner state: the cached
// cloud under test, whose witness maintenance is lazy, and the on-demand
// cloud that computes every served witness from the current primes — the
// ground truth for served responses.
func lazyAndOnDemand(t testing.TB, owner *Owner, out *UpdateOutput) (lazy, onDemand *Cloud) {
	t.Helper()
	lazy, err := NewCloud(owner.CloudInit(out.Index), WitnessCached)
	if err != nil {
		t.Fatalf("NewCloud(cached): %v", err)
	}
	onDemand, err = NewCloud(owner.CloudInit(out.Index), WitnessOnDemand)
	if err != nil {
		t.Fatalf("NewCloud(on-demand): %v", err)
	}
	return lazy, onDemand
}

// rebuiltState is the ground truth for a persisted witness cache: the
// marshaled state of a cached cloud built from scratch over the owner's
// current primes, whose witnesses come from one RootFactor pass.
func rebuiltState(t testing.TB, owner *Owner, out *UpdateOutput) map[string]json.RawMessage {
	t.Helper()
	fresh, err := NewCloud(owner.CloudInit(out.Index), WitnessCached)
	if err != nil {
		t.Fatalf("NewCloud(rebuilt): %v", err)
	}
	return marshaledFields(t, fresh)
}

func marshaledFields(t testing.TB, c *Cloud) map[string]json.RawMessage {
	t.Helper()
	raw, err := c.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	return fields
}

// TestLazyRefreshMatchesEager interleaves inserts and searches and requires
// the lazy cloud's responses to be byte-identical to an on-demand cloud's at
// every step, and its persisted state to a cache rebuilt from scratch — the
// witnesses an eager refresh would hold.
func TestLazyRefreshMatchesEager(t *testing.T) {
	const bits = 8
	db := lazyDB(40, bits, 71)
	owner, err := NewOwner(testParams(bits))
	if err != nil {
		t.Fatal(err)
	}
	out, err := owner.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	lazy, onDemand := lazyAndOnDemand(t, owner, out)
	user, err := NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}

	nextID := uint64(1000)
	for step := 0; step < 6; step++ {
		batch := make([]Record, 3+step*2)
		for i := range batch {
			batch[i] = NewRecord(nextID, uint64(step*13+i)%(1<<bits))
			nextID++
		}
		upd, err := owner.Insert(batch)
		if err != nil {
			t.Fatalf("step %d: Insert: %v", step, err)
		}
		if err := lazy.ApplyUpdate(upd); err != nil {
			t.Fatalf("step %d: lazy ApplyUpdate: %v", step, err)
		}
		if err := onDemand.ApplyUpdate(upd); err != nil {
			t.Fatalf("step %d: on-demand ApplyUpdate: %v", step, err)
		}

		for _, q := range []Query{Equal(uint64(step * 13 % (1 << bits))), Greater(1 << (bits - 1)), Less(20)} {
			req, err := user.Token(q)
			if err != nil {
				t.Fatalf("step %d: Token: %v", step, err)
			}
			respL, err := lazy.Search(req)
			if err != nil {
				t.Fatalf("step %d: lazy Search: %v", step, err)
			}
			respE, err := onDemand.Search(req)
			if err != nil {
				t.Fatalf("step %d: on-demand Search: %v", step, err)
			}
			rawL, _ := json.Marshal(respL)
			rawE, _ := json.Marshal(respE)
			if !bytes.Equal(rawL, rawE) {
				t.Fatalf("step %d query %v: lazy response differs from on-demand", step, q)
			}
			if err := VerifyResponse(owner.AccumulatorPub(), owner.Ac(), req, respL); err != nil {
				t.Fatalf("step %d: lazy response fails verification: %v", step, err)
			}
		}
	}

	// Persisted state must fold all pending batches and match a cache
	// rebuilt over the owner's current primes exactly. Index bytes are
	// excluded: store.Index marshals in map order, which differs between
	// instances even for identical contents.
	sL, sE := marshaledFields(t, lazy), rebuiltState(t, owner, out)
	for _, k := range []string{"witnesses", "primes", "ac"} {
		if !bytes.Equal(sL[k], sE[k]) {
			t.Fatalf("marshaled %q differs between lazy and rebuilt", k)
		}
	}
}

// TestLazyRebuildThreshold forces the journal over its budget and checks the
// cloud degrades to a clean rebuild (journal drained, searches verify).
func TestLazyRebuildThreshold(t *testing.T) {
	const bits = 8
	db := lazyDB(30, bits, 5)
	params := testParams(bits)
	params.RebuildThreshold = 8
	owner, err := NewOwner(params)
	if err != nil {
		t.Fatal(err)
	}
	out, err := owner.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := NewCloud(owner.CloudInit(out.Index), WitnessCached)
	if err != nil {
		t.Fatal(err)
	}
	user, err := NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		batch := make([]Record, 6)
		for i := range batch {
			batch[i] = NewRecord(uint64(2000+step*10+i), uint64(step*31+i*7)%(1<<bits))
		}
		upd, err := owner.Insert(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := cloud.ApplyUpdate(upd); err != nil {
			t.Fatal(err)
		}
	}
	cloud.mu.RLock()
	pending := cloud.pendingPrimes
	cloud.mu.RUnlock()
	if pending > params.RebuildThreshold {
		t.Fatalf("journal holds %d pending primes past threshold %d", pending, params.RebuildThreshold)
	}
	req, err := user.Token(Greater(0))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cloud.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyResponse(owner.AccumulatorPub(), owner.Ac(), req, resp); err != nil {
		t.Fatal(err)
	}
}

// TestLazyConcurrentServes folds pending witnesses from many goroutines at
// once (the entry-level locking under the cloud read lock); run with -race.
func TestLazyConcurrentServes(t *testing.T) {
	const bits = 8
	db := lazyDB(50, bits, 23)
	owner, err := NewOwner(testParams(bits))
	if err != nil {
		t.Fatal(err)
	}
	out, err := owner.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := NewCloud(owner.CloudInit(out.Index), WitnessCached)
	if err != nil {
		t.Fatal(err)
	}
	user, err := NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Record, 12)
	for i := range batch {
		batch[i] = NewRecord(uint64(3000+i), uint64(i*11)%(1<<bits))
	}
	upd, err := owner.Insert(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloud.ApplyUpdate(upd); err != nil {
		t.Fatal(err)
	}

	queries := []Query{Greater(10), Less(200), Equal(11), Equal(22), Greater(128)}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*4)
	for g := 0; g < 4; g++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q Query) {
				defer wg.Done()
				req, err := user.Token(q)
				if err != nil {
					errs <- err
					return
				}
				resp, err := cloud.Search(req)
				if err != nil {
					errs <- fmt.Errorf("query %v: %w", q, err)
					return
				}
				if err := VerifyResponse(owner.AccumulatorPub(), owner.Ac(), req, resp); err != nil {
					errs <- fmt.Errorf("query %v: %w", q, err)
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzWitnessRefreshLazyVsEager drives a randomized insert/search schedule
// through the lazy cached cloud and requires its served responses to be
// byte-identical to an on-demand cloud's and its persisted cache to one
// rebuilt from scratch — what an eager refresh would compute.
func FuzzWitnessRefreshLazyVsEager(f *testing.F) {
	f.Add([]byte{3, 1, 9, 250, 0}, uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7}, uint8(9))
	f.Fuzz(func(t *testing.T, schedule []byte, seed uint8) {
		const bits = 6
		if len(schedule) > 16 {
			schedule = schedule[:16]
		}
		db := lazyDB(12, bits, int64(seed))
		owner, err := NewOwner(testParams(bits))
		if err != nil {
			t.Fatal(err)
		}
		out, err := owner.Build(db)
		if err != nil {
			t.Fatal(err)
		}
		lazy, onDemand := lazyAndOnDemand(t, owner, out)
		user, err := NewUser(owner.ClientState())
		if err != nil {
			t.Fatal(err)
		}
		nextID := uint64(500)
		for step, b := range schedule {
			if b%2 == 0 {
				n := int(b/2)%5 + 1
				batch := make([]Record, n)
				for i := range batch {
					batch[i] = NewRecord(nextID, (uint64(b)+uint64(i*3))%(1<<bits))
					nextID++
				}
				upd, err := owner.Insert(batch)
				if err != nil {
					t.Fatal(err)
				}
				if err := lazy.ApplyUpdate(upd); err != nil {
					t.Fatal(err)
				}
				if err := onDemand.ApplyUpdate(upd); err != nil {
					t.Fatal(err)
				}
				continue
			}
			req, err := user.Token(Greater(uint64(b) % (1 << bits)))
			if err != nil {
				t.Fatal(err)
			}
			respL, err := lazy.Search(req)
			if err != nil {
				t.Fatalf("step %d: lazy: %v", step, err)
			}
			respE, err := onDemand.Search(req)
			if err != nil {
				t.Fatalf("step %d: on-demand: %v", step, err)
			}
			rawL, _ := json.Marshal(respL)
			rawE, _ := json.Marshal(respE)
			if !bytes.Equal(rawL, rawE) {
				t.Fatalf("step %d: lazy and on-demand responses differ", step)
			}
		}
		sL, sE := marshaledFields(t, lazy), rebuiltState(t, owner, out)
		if !bytes.Equal(sL["witnesses"], sE["witnesses"]) {
			t.Fatal("persisted witness cache differs from one rebuilt from scratch")
		}
	})
}
