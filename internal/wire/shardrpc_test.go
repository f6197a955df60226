package wire

import (
	"bytes"
	"encoding/json"
	"testing"

	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/mhash"
	"slicer/internal/store"
	"slicer/internal/workload"
)

// shardFixture builds an owner over a small workload and boots two cloud
// servers: src holds the full index, dst holds the full ADS but an empty
// index partition — the state a range-move destination starts from.
type shardFixture struct {
	owner *core.Owner
	built *core.UpdateOutput
	db    []core.Record
	src   *CloudClient
	dst   *CloudClient
}

func newShardFixture(t *testing.T) *shardFixture {
	t.Helper()
	params := core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256}
	owner, err := core.NewOwner(params)
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	db := workload.Generate(workload.Config{N: 40, Bits: 8, Seed: 11})
	built, err := owner.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dial := func(ix *store.Index) *CloudClient {
		srv := NewCloudServer()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		cli, err := DialCloud(addr)
		if err != nil {
			t.Fatalf("DialCloud: %v", err)
		}
		t.Cleanup(func() { cli.Close() })
		if err := cli.Init(owner.CloudInit(ix), true); err != nil {
			t.Fatalf("Init: %v", err)
		}
		return cli
	}
	return &shardFixture{
		owner: owner,
		built: built,
		db:    db,
		src:   dial(built.Index),
		dst:   dial(store.NewIndex()),
	}
}

func TestCloudMGet(t *testing.T) {
	f := newShardFixture(t)
	var labels [][]byte
	var want []store.Payload
	f.built.Index.Range(func(l store.Label, d store.Payload) bool {
		labels = append(labels, append([]byte(nil), l[:]...))
		want = append(want, d)
		return len(labels) < 5
	})
	// Interleave a label that is not in the index.
	absent := make([]byte, store.EntrySize)
	labels = append(labels, absent)
	reply, err := f.src.MGet(labels)
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	for i := range want {
		if !reply.Found[i] {
			t.Fatalf("label %d not found", i)
		}
		if !bytes.Equal(reply.Payloads[i], want[i][:]) {
			t.Fatalf("label %d payload mismatch", i)
		}
	}
	if reply.Found[len(labels)-1] {
		t.Fatal("absent label reported found")
	}
	if len(reply.Payloads[len(labels)-1]) != 0 {
		t.Fatal("absent label carried a payload")
	}
}

// TestCloudWitnessMatchesSearch checks that delegated witness generation
// (router derives the prime, shard answers cloud.witnessx) yields exactly
// the VO a single-cloud search would have attached.
func TestCloudWitnessMatchesSearch(t *testing.T) {
	f := newShardFixture(t)
	user, err := core.NewUser(f.owner.ClientState())
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	req, err := user.Token(core.Less(128))
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	resp, err := f.src.Search(req)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	for i, res := range resp.Results {
		x := core.TokenPrime(res.Token, mhash.OfMultiset(res.ER))
		vo, err := f.src.Witness(x)
		if err != nil {
			t.Fatalf("Witness(token %d): %v", i, err)
		}
		if !bytes.Equal(vo, res.Witness) {
			t.Fatalf("token %d: delegated witness differs from search VO", i)
		}
	}
	// A prime outside the accumulated set surfaces the canonical error.
	bogus := core.TokenPrime(core.SearchToken{Trapdoor: []byte("x"), G1: []byte("y"), G2: []byte("z")},
		mhash.OfMultiset(nil))
	if _, err := f.src.Witness(bogus); err == nil {
		t.Fatal("witness for unknown prime succeeded")
	}
}

// TestCloudRangeMove drives the full export → import → delete protocol
// between two live shards, with pagination and a retried (idempotent) page.
func TestCloudRangeMove(t *testing.T) {
	f := newShardFixture(t)
	const lo, hi = uint64(0), uint64(1) << 63 // move the lower half-space
	var moved int
	cursor := []byte(nil)
	var lastPage *ExportReply
	for {
		page, err := f.src.Export(&ExportMsg{Lo: lo, Hi: hi, Cursor: cursor, Limit: 7})
		if err != nil {
			t.Fatalf("Export: %v", err)
		}
		if len(page.Labels) == 0 {
			break
		}
		if err := f.dst.Import(page.Labels, page.Payloads); err != nil {
			t.Fatalf("Import: %v", err)
		}
		moved += len(page.Labels)
		lastPage = page
		if page.Next == nil {
			break
		}
		cursor = page.Next
	}
	if moved == 0 {
		t.Fatal("no entries in the lower half-space; widen the workload")
	}
	// A mover that crashed after import but before recording progress
	// retries the page: the import must be accepted again unchanged.
	if err := f.dst.Import(lastPage.Labels, lastPage.Payloads); err != nil {
		t.Fatalf("idempotent re-import: %v", err)
	}
	removed, err := f.src.DeleteRange(lo, hi)
	if err != nil {
		t.Fatalf("DeleteRange: %v", err)
	}
	if removed != moved {
		t.Fatalf("deleted %d entries, moved %d", removed, moved)
	}
	// Each moved label now lives on dst and is gone from src.
	probe := lastPage.Labels
	srcReply, err := f.src.MGet(probe)
	if err != nil {
		t.Fatalf("MGet src: %v", err)
	}
	dstReply, err := f.dst.MGet(probe)
	if err != nil {
		t.Fatalf("MGet dst: %v", err)
	}
	for i := range probe {
		if srcReply.Found[i] {
			t.Fatalf("label %d still on source after delete", i)
		}
		if !dstReply.Found[i] {
			t.Fatalf("label %d missing on destination", i)
		}
	}
	// Deleting again removes nothing (idempotent).
	if again, err := f.src.DeleteRange(lo, hi); err != nil || again != 0 {
		t.Fatalf("second DeleteRange = %d, %v", again, err)
	}
}

// TestShardMoveDurableReplay kills a durable destination shard after an
// acknowledged import and a source shard after an acknowledged delete; both
// must come back with the move intact.
func TestShardMoveDurableReplay(t *testing.T) {
	params := core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256}
	owner, err := core.NewOwner(params)
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	built, err := owner.Build(workload.Generate(workload.Config{N: 30, Bits: 8, Seed: 3}))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dir := t.TempDir()
	boot := func() (*CloudServer, *CloudClient) {
		srv := NewCloudServer()
		if _, err := srv.EnableDurability(durable.JournalOptions{Dir: dir}); err != nil {
			t.Fatalf("EnableDurability: %v", err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		cli, err := DialCloud(addr)
		if err != nil {
			t.Fatalf("DialCloud: %v", err)
		}
		return srv, cli
	}
	srv, cli := boot()
	if err := cli.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatalf("Init: %v", err)
	}
	// Import a couple of synthetic entries and delete an arc that covers one
	// existing entry, then "crash" (close without snapshotting).
	var syn [2]store.Label
	var synPay [2]store.Payload
	for i := range syn {
		syn[i][0] = 0xee
		syn[i][store.EntrySize-1] = byte(i + 1)
		synPay[i][0] = byte(0xa0 + i)
	}
	if err := cli.Import([][]byte{syn[0][:], syn[1][:]}, [][]byte{synPay[0][:], synPay[1][:]}); err != nil {
		t.Fatalf("Import: %v", err)
	}
	var victim store.Label
	built.Index.Range(func(l store.Label, _ store.Payload) bool { victim = l; return false })
	vAddr := store.Addr(victim)
	removed, err := cli.DeleteRange(vAddr, vAddr+1)
	if err != nil {
		t.Fatalf("DeleteRange: %v", err)
	}
	if removed == 0 {
		t.Fatal("victim delete removed nothing")
	}
	cli.Close()
	srv.Close()

	_, cli2 := boot()
	defer cli2.Close()
	reply, err := cli2.MGet([][]byte{syn[0][:], syn[1][:], victim[:]})
	if err != nil {
		t.Fatalf("MGet after restart: %v", err)
	}
	if !reply.Found[0] || !reply.Found[1] {
		t.Fatal("journaled import lost across restart")
	}
	if !bytes.Equal(reply.Payloads[0], synPay[0][:]) {
		t.Fatal("imported payload corrupted across restart")
	}
	if reply.Found[2] {
		t.Fatal("journaled delete lost across restart")
	}
}

// TestImportConflictRejected: shipping a label that exists with a different
// payload is a hard error, not a silent overwrite.
func TestImportConflictRejected(t *testing.T) {
	f := newShardFixture(t)
	var l store.Label
	f.built.Index.Range(func(lab store.Label, _ store.Payload) bool { l = lab; return false })
	var wrong store.Payload
	wrong[0] = 0xff
	if err := f.src.Import([][]byte{l[:]}, [][]byte{wrong[:]}); err == nil {
		t.Fatal("conflicting import succeeded")
	}
}

// TestCloudInitWithRemovedParams ships a cloud.init message whose Params
// still carry SearchWorkers and FixedBaseTeeth, as an owner built before
// those fields were removed sends it: the cloud initializes and answers
// exactly as one initialized from the current encoding.
func TestCloudInitWithRemovedParams(t *testing.T) {
	checkLegacyCloudInit(t, `,"SearchWorkers":2,"FixedBaseTeeth":6}`)
}

// TestCloudInitWithEagerWitnessRefresh ships a cloud.init message whose
// Params still carry EagerWitnessRefresh, set: the cloud initializes and
// answers exactly as one initialized from the current encoding.
func TestCloudInitWithEagerWitnessRefresh(t *testing.T) {
	checkLegacyCloudInit(t, `,"EagerWitnessRefresh":true}`)
}

// checkLegacyCloudInit replaces the closing brace of a cloud.init message's
// params with legacyTail and requires the initialized cloud to answer like
// the reference cloud.
func checkLegacyCloudInit(t *testing.T, legacyTail string) {
	t.Helper()
	f := newShardFixture(t)
	raw, err := json.Marshal(EncodeCloudInit(f.owner.CloudInit(f.built.Index), true))
	if err != nil {
		t.Fatal(err)
	}
	var msg map[string]json.RawMessage
	if err := json.Unmarshal(raw, &msg); err != nil {
		t.Fatal(err)
	}
	params := bytes.TrimSuffix(msg["params"], []byte("}"))
	msg["params"] = append(params, []byte(legacyTail)...)

	srv := NewCloudServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := DialCloud(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	if err := cli.Client().Call(MethodCloudInit, msg, nil); err != nil {
		t.Fatalf("cloud.init with legacy params: %v", err)
	}
	user, err := core.NewUser(f.owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []core.Query{core.Less(128), core.Equal(f.db[0].Attrs[0].Value)} {
		req, err := user.Token(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cli.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.src.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("%v: legacy-initialized cloud answers differently", q)
		}
	}
}
