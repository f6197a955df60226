package shard

import (
	"encoding/json"
	"math/big"
	"strings"
	"sync/atomic"
	"testing"

	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/store"
	"slicer/internal/wire"
	"slicer/internal/workload"
)

// TestRoutedSearchDrainsWideEpochs drives epochs of more than DefaultBatch
// entries through the router — an epoch-1 insert batch and large epoch-0
// order slices — so the walk needs several mget rounds per epoch and must
// still match the single cloud byte for byte.
func TestRoutedSearchDrainsWideEpochs(t *testing.T) {
	f := newFixture(t, 3, 60, 41, durable.JournalOptions{})
	v := f.db[0].Attrs[0].Value
	var recs []core.Record
	for i := 0; i < DefaultBatch+5; i++ {
		recs = append(recs, core.NewRecord(uint64(9000+i), v))
	}
	up, err := f.owner.Insert(recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.cli.Update(up); err != nil {
		t.Fatal(err)
	}
	if err := f.single.ApplyUpdate(up); err != nil {
		t.Fatal(err)
	}
	f.db = append(f.db, recs...)
	f.user.UpdateStates(f.owner.StatesSnapshot())

	for _, q := range []core.Query{core.Equal(v), core.Greater(0), core.Less(255)} {
		req, err := f.user.Token(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.single.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		widest := 0
		for _, res := range want.Results {
			widest = max(widest, len(res.ER))
		}
		if widest <= DefaultBatch {
			t.Fatalf("%v: widest token has %d results; the test needs more than %d", q, widest, DefaultBatch)
		}
		f.checkQuery(t, q)
	}
}

// fakeShard is a one-shard fleet over a real cloud whose cloud.mget replies
// can be corrupted: payloadLen > 0 replaces every found payload with that
// many bytes.
type fakeShard struct {
	cloud      *core.Cloud
	payloadLen atomic.Int64
}

func (s *fakeShard) serve(t *testing.T) string {
	t.Helper()
	srv := wire.NewServer()
	srv.Handle(wire.MethodCloudInit, func(json.RawMessage) (any, error) {
		return map[string]bool{"ok": true}, nil
	})
	srv.Handle(wire.MethodCloudMGet, func(params json.RawMessage) (any, error) {
		var msg wire.MGetMsg
		if err := json.Unmarshal(params, &msg); err != nil {
			return nil, err
		}
		labels := make([]store.Label, len(msg.Labels))
		for i, raw := range msg.Labels {
			copy(labels[i][:], raw)
		}
		payloads, found := s.cloud.GetEntries(labels)
		reply := &wire.MGetReply{Found: found, Payloads: make([][]byte, len(labels))}
		for i := range labels {
			if !found[i] {
				continue
			}
			reply.Payloads[i] = payloads[i][:]
			if n := s.payloadLen.Load(); n > 0 {
				reply.Payloads[i] = make([]byte, n)
			}
		}
		return reply, nil
	})
	srv.Handle(wire.MethodCloudWitness, func(params json.RawMessage) (any, error) {
		var msg wire.WitnessMsg
		if err := json.Unmarshal(params, &msg); err != nil {
			return nil, err
		}
		vo, err := s.cloud.WitnessForPrime(new(big.Int).SetBytes(msg.X))
		if err != nil {
			return nil, err
		}
		return &wire.WitnessReply{VO: vo}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestRouterRejectsMalformedPayloads has a shard answer cloud.mget with
// payloads shorter and longer than store.EntrySize. The routed search must
// fail with an error naming the shard — not crash the router — and the
// router must keep serving: once the shard answers correctly again, the
// same search matches the single cloud.
func TestRouterRejectsMalformedPayloads(t *testing.T) {
	owner, err := core.NewOwner(core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	built, err := owner.Build(workload.Generate(workload.Config{N: 30, Bits: 8, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := core.NewCloud(owner.CloudInit(built.Index), core.WitnessCached)
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	sh := &fakeShard{cloud: cloud}
	router, err := NewRouter(Options{Shards: []ShardSpec{{ID: "bad", Addr: sh.serve(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	addr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := wire.DialCloud(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	if err := cli.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatal(err)
	}
	req, err := user.Token(core.Less(200))
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int64{1, store.EntrySize - 1, store.EntrySize + 1} {
		sh.payloadLen.Store(n)
		_, err := cli.Search(req)
		if err == nil || !strings.Contains(err.Error(), "bad") || !strings.Contains(err.Error(), "payload") {
			t.Fatalf("%d-byte payloads: err = %v, want a payload error naming shard bad", n, err)
		}
	}

	sh.payloadLen.Store(0)
	got, err := cli.Search(req)
	if err != nil {
		t.Fatalf("search after the shard recovered: %v", err)
	}
	want, err := cloud.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResponses(t, got, want)
}

// TestTableInfoIgnoresRetainedEpochs decodes a router.table reply from a
// router that still reports retainedEpochs.
func TestTableInfoIgnoresRetainedEpochs(t *testing.T) {
	table, err := NewTable([]string{"s1", "s2"}, DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer()
	srv.Handle(MethodRouterTable, func(json.RawMessage) (any, error) {
		return map[string]any{"table": table, "retainedEpochs": 3}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rc, err := DialRouter(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	info, err := rc.TableInfo()
	if err != nil {
		t.Fatalf("TableInfo: %v", err)
	}
	got, _ := json.Marshal(info.Table)
	want, _ := json.Marshal(table)
	if string(got) != string(want) {
		t.Fatalf("decoded table %s, want %s", got, want)
	}
}
