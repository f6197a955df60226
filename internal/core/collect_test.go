package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"slicer/internal/store"
)

// TestCollectBatchedWalk drives the shared Algorithm 4 walk over a counting
// lookup backed by a real cloud index. Each case is one keyword (an
// equality value) whose epochs hold the listed entry counts, oldest first.
// At every batch width the walk must return exactly Cloud.Search's result
// list and make Σₑ(⌊nₑ/B⌋+1) lookups: full batches, then the batch holding
// each epoch's first missing counter.
func TestCollectBatchedWalk(t *testing.T) {
	type walkCase struct {
		batch int
		sizes []int // entries per epoch, epoch 0 first
	}
	var cases []walkCase
	seen := make(map[string]bool)
	for _, b := range []int{1, 4, 16} {
	sizeLists:
		for _, sizes := range [][]int{
			{1}, {b - 1}, {b}, {b + 1}, {2 * b},
			{b + 1, 1, 2 * b},
			{2 * b, b, b - 1, b + 1},
			{1, b, 1},
		} {
			for _, n := range sizes {
				if n == 0 {
					continue sizeLists // inserted epochs are never empty; see the empty-keyword check below
				}
			}
			if key := fmt.Sprint(b, sizes); !seen[key] {
				seen[key] = true
				cases = append(cases, walkCase{batch: b, sizes: sizes})
			}
		}
	}

	// Case i's keyword is the equality value i+1; epoch e of every case
	// arrives in the same Build (e = 0) or Insert (e > 0) batch.
	owner, err := NewOwner(testParams(8))
	if err != nil {
		t.Fatal(err)
	}
	nextID := uint64(1)
	records := func(epoch int) []Record {
		var recs []Record
		for i, c := range cases {
			if epoch < len(c.sizes) {
				for k := 0; k < c.sizes[epoch]; k++ {
					recs = append(recs, NewRecord(nextID, uint64(i+1)))
					nextID++
				}
			}
		}
		return recs
	}
	built, err := owner.Build(records(0))
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := NewCloud(owner.CloudInit(built.Index), WitnessCached)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch < 4; epoch++ {
		out, err := owner.Insert(records(epoch))
		if err != nil {
			t.Fatal(err)
		}
		if err := cloud.ApplyUpdate(out); err != nil {
			t.Fatal(err)
		}
	}
	user, err := NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}

	for i, c := range cases {
		t.Run(fmt.Sprintf("B=%d/sizes=%v", c.batch, c.sizes), func(t *testing.T) {
			req, err := user.Token(Equal(uint64(i + 1)))
			if err != nil {
				t.Fatal(err)
			}
			if len(req.Tokens) != 1 || req.Tokens[0].Epoch != len(c.sizes)-1 {
				t.Fatalf("token = %+v, want one token at epoch %d", req.Tokens, len(c.sizes)-1)
			}
			calls := 0
			er, err := Collect(cloud.tpk, req.Tokens[0], c.batch, func(labels []store.Label, payloads []store.Payload, found []bool) error {
				calls++
				if len(labels) != c.batch {
					t.Fatalf("lookup got %d labels, want %d", len(labels), c.batch)
				}
				return cloud.getEntries(labels, payloads, found)
			})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := cloud.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(er, resp.Results[0].ER) {
				t.Fatalf("walk returned %d entries, Cloud.Search %d (or different bytes)", len(er), len(resp.Results[0].ER))
			}
			wantCalls, wantLen := 0, 0
			for _, n := range c.sizes {
				wantCalls += n/c.batch + 1
				wantLen += n
			}
			if len(er) != wantLen {
				t.Fatalf("walk returned %d entries, want %d", len(er), wantLen)
			}
			if calls != wantCalls {
				t.Fatalf("walk made %d lookups, want %d", calls, wantCalls)
			}
		})
	}

	// An epoch-0 token whose keyword holds no entries: one lookup, no
	// results, for the walk and for the cloud alike.
	req, err := user.Token(Equal(1))
	if err != nil {
		t.Fatal(err)
	}
	empty := SearchToken{Trapdoor: req.Tokens[0].Trapdoor, G1: req.Tokens[0].G2, G2: req.Tokens[0].G1}
	for _, b := range []int{1, 4, 16} {
		calls := 0
		er, err := Collect(cloud.tpk, empty, b, func(labels []store.Label, payloads []store.Payload, found []bool) error {
			calls++
			return cloud.getEntries(labels, payloads, found)
		})
		if err != nil || len(er) != 0 || calls != 1 {
			t.Fatalf("B=%d empty epoch: %d entries, %d lookups, err %v; want 0, 1, nil", b, len(er), calls, err)
		}
	}
	resp, err := cloud.SearchResults(&SearchRequest{Tokens: []SearchToken{empty}})
	if err != nil || len(resp.Results[0].ER) != 0 {
		t.Fatalf("SearchResults on an empty epoch: %+v, %v", resp, err)
	}
	if _, err := cloud.Search(&SearchRequest{Tokens: []SearchToken{empty}}); !errors.Is(err, ErrUnknownToken) {
		t.Fatalf("Search on an empty epoch: %v, want ErrUnknownToken", err)
	}
}

// TestCollectLookupError pins the walk's failure path: a lookup error ends
// the walk with that error.
func TestCollectLookupError(t *testing.T) {
	d := deploy(t, 8, []Record{NewRecord(1, 3)}, WitnessCached)
	req, err := d.user.Token(Equal(3))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("shard down")
	_, err = Collect(d.cloud.tpk, req.Tokens[0], 4, func([]store.Label, []store.Payload, []bool) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("lookup error: got %v, want %v", err, boom)
	}
}

// TestStateWithRemovedParamsLoads loads owner and cloud state written while
// Params still carried SearchWorkers and FixedBaseTeeth: both load, and the
// restored parties search exactly as the originals do.
func TestStateWithRemovedParamsLoads(t *testing.T) {
	checkLegacyStateLoads(t, map[string]any{"SearchWorkers": 2, "FixedBaseTeeth": 6})
}

// TestStateWithEagerWitnessRefreshLoads loads owner and cloud state written
// while Params still carried EagerWitnessRefresh, set: both load, and the
// restored parties search exactly as the originals do.
func TestStateWithEagerWitnessRefreshLoads(t *testing.T) {
	checkLegacyStateLoads(t, map[string]any{"EagerWitnessRefresh": true})
}

// checkLegacyStateLoads adds removed Params fields to serialized owner and
// cloud state and requires both to load and search unchanged.
func checkLegacyStateLoads(t *testing.T, legacy map[string]any) {
	t.Helper()
	db := []Record{NewRecord(1, 5), NewRecord(2, 9), NewRecord(3, 5), NewRecord(4, 200)}
	d := deploy(t, 8, db, WitnessCached)
	ownerBlob, err := d.owner.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cloudBlob, err := d.cloud.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	owner, err := UnmarshalOwner(withLegacyParams(t, ownerBlob, legacy))
	if err != nil {
		t.Fatalf("UnmarshalOwner: %v", err)
	}
	cloud, err := UnmarshalCloud(withLegacyParams(t, cloudBlob, legacy))
	if err != nil {
		t.Fatalf("UnmarshalCloud: %v", err)
	}
	if owner.Params() != d.owner.Params() {
		t.Fatalf("restored params %+v, want %+v", owner.Params(), d.owner.Params())
	}
	user, err := NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{Equal(5), Less(100), Greater(8)} {
		req, err := user.Token(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cloud.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.cloud.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("%v: restored cloud answers differently", q)
		}
		if err := VerifyResponse(owner.AccumulatorPub(), owner.Ac(), req, got); err != nil {
			t.Fatalf("%v: %v", q, err)
		}
	}
}

// withLegacyParams adds removed fields to the "params" object of a
// serialized state.
func withLegacyParams(t *testing.T, blob []byte, legacy map[string]any) []byte {
	t.Helper()
	var st map[string]json.RawMessage
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	var params map[string]any
	if err := json.Unmarshal(st["params"], &params); err != nil {
		t.Fatal(err)
	}
	for k, v := range legacy {
		params[k] = v
	}
	raw, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	st["params"] = raw
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
