package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"slicer/internal/durable"
	"slicer/internal/trapdoor"
)

// routerKey reads the router's trapdoor key in its journaled encoding.
func routerKey(t *testing.T, r *Router) []byte {
	t.Helper()
	tpk, err := r.trapdoorPub()
	if err != nil {
		t.Fatal(err)
	}
	return tpk.MarshalPublic()
}

// TestRouterJournalSnapshotsAndCompacts journals more records than the
// snapshot trigger through init and range moves: the data directory must
// then hold a snapshot and a WAL compacted past its first segment, and a
// restarted router must recover the same table epoch and trapdoor key.
func TestRouterJournalSnapshotsAndCompacts(t *testing.T) {
	dir := t.TempDir()
	opts := durable.JournalOptions{Dir: dir, SnapshotEvery: 3, SegmentBytes: 1}
	f := newFixture(t, 3, 40, 43, opts)
	// Records so far: the fresh table and the init's key. Four moves add
	// four more, two past each of the two snapshot triggers.
	tab := f.router.Table()
	src, dst := tab.Shards()[0], tab.Shards()[1]
	for _, rg := range tab.Ranges(src)[:4] {
		if _, err := f.router.Rebalance(rg[0], rg[1], dst, nil); err != nil {
			t.Fatalf("Rebalance: %v", err)
		}
	}
	want := f.router.Table()
	wantKey := routerKey(t, f.router)
	f.cli.Close() // an open client connection holds the router's Close
	if err := f.router.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) == 0 {
		t.Fatal("no snapshot after 6 journaled records with SnapshotEvery 3")
	}
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(wals) == 0 || len(wals) >= 6 {
		t.Fatalf("%d WAL segments for 6 one-record segments, want compaction to leave fewer", len(wals))
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-0000000000000001.log")); !os.IsNotExist(err) {
		t.Fatalf("first WAL segment survived compaction (stat: %v)", err)
	}

	r2, err := NewRouter(Options{Shards: f.router.specs})
	if err != nil {
		t.Fatalf("NewRouter after restart: %v", err)
	}
	defer r2.Close()
	if _, err := r2.EnableDurability(opts); err != nil {
		t.Fatalf("EnableDurability after restart: %v", err)
	}
	got := r2.Table()
	if got.Epoch != want.Epoch {
		t.Fatalf("recovered epoch %d, want %d", got.Epoch, want.Epoch)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatal("recovered routing table differs from the acknowledged one")
	}
	if !bytes.Equal(routerKey(t, r2), wantKey) {
		t.Fatal("recovered trapdoor key differs from the journaled one")
	}
}

// TestRouterRecoversWALOnlyDir recovers a data directory in the format
// routers wrote before the router journal took snapshots: journal records
// in the WAL and no snapshot.
func TestRouterRecoversWALOnlyDir(t *testing.T) {
	dir := t.TempDir()
	specs := []ShardSpec{{ID: "s1", Addr: "127.0.0.1:1"}, {ID: "s2", Addr: "127.0.0.1:2"}}
	t0, err := NewTable([]string{"s1", "s2"}, DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}
	rg := t0.Ranges("s1")[0]
	t1, err := t0.Move(rg[0], rg[1], "s2")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := trapdoor.GenerateKey(256)
	if err != nil {
		t.Fatal(err)
	}
	key := sk.PublicKey.MarshalPublic()
	log, err := durable.OpenLog(durable.OS, dir, durable.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range []journalRec{{Table: t0}, {TrapdoorPub: key}, {Table: t1}} {
		b, err := json.Marshal(&jr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewRouter(Options{Shards: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.EnableDurability(durable.JournalOptions{Dir: dir}); err != nil {
		t.Fatalf("EnableDurability over a WAL-only dir: %v", err)
	}
	if got := r.Table().Epoch; got != t1.Epoch {
		t.Fatalf("recovered epoch %d, want %d", got, t1.Epoch)
	}
	if got := r.Table().Lookup(rg[0]); got != "s2" {
		t.Fatalf("recovered table owns %#x by %q, want s2", rg[0], got)
	}
	if !bytes.Equal(routerKey(t, r), key) {
		t.Fatal("recovered trapdoor key differs from the journaled one")
	}
}
