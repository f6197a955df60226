package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"slicer/internal/core"
	"slicer/internal/shard"
	"slicer/internal/wire"
	"slicer/internal/workload"
)

// AblationShards measures the sharded cloud tier: the same database served
// by one shard versus a three-shard fleet behind the scatter-gather router,
// over real loopback RPC in both cases (so the comparison isolates fan-out
// cost, not serialization). Every routed response is asserted byte-identical
// to an embedded single cloud before its timing counts.
func (r *Runner) AblationShards() (*Table, error) {
	r.progress("ablation: single shard vs scatter-gather fleet ...")
	const bits = 16
	n := r.scale.Counts[0]
	db := workload.Generate(workload.Config{N: n, Bits: bits, Seed: 77})
	owner, err := core.NewOwner(r.scale.Params(bits))
	if err != nil {
		return nil, err
	}
	out, err := owner.Build(db)
	if err != nil {
		return nil, err
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		return nil, err
	}
	reference, err := core.NewCloud(owner.CloudInit(out.Index), core.WitnessCached)
	if err != nil {
		return nil, err
	}
	maxV := uint64(1)<<bits - 1
	orderReq, err := user.Token(core.Less(maxV / 2))
	if err != nil {
		return nil, err
	}
	eqReq, err := user.Token(core.Equal(db[n/2].Attrs[0].Value))
	if err != nil {
		return nil, err
	}
	wantOrder, err := reference.Search(orderReq)
	if err != nil {
		return nil, err
	}
	wantOrderRaw, err := json.Marshal(wantOrder)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "ablation-shards",
		Title:   fmt.Sprintf("Sharded cloud: 1 vs 3 shards behind the router (%d-bit, %d records)", bits, n),
		Headers: []string{"shards", "init (split+ship)", "order search", "equality search", "max entries/shard"},
	}
	const reps = 3
	for _, nShards := range []int{1, 3} {
		var servers []*wire.CloudServer
		var specs []shard.ShardSpec
		for i := 0; i < nShards; i++ {
			srv := wire.NewCloudServer()
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			servers = append(servers, srv)
			specs = append(specs, shard.ShardSpec{ID: fmt.Sprintf("s%d", i+1), Addr: addr})
		}
		router, err := shard.NewRouter(shard.Options{Shards: specs, Registry: r.Registry})
		if err != nil {
			return nil, err
		}
		addr, err := router.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		cli, err := wire.DialCloud(addr)
		if err != nil {
			return nil, err
		}

		start := time.Now()
		if err := cli.Init(owner.CloudInit(out.Index), true); err != nil {
			return nil, err
		}
		initDur := time.Since(start)

		measure := func(req *core.SearchRequest, want []byte) (time.Duration, error) {
			var total time.Duration
			for i := 0; i < reps; i++ {
				start := time.Now()
				resp, err := cli.Search(req)
				if err != nil {
					return 0, err
				}
				total += time.Since(start)
				if want != nil {
					raw, err := json.Marshal(resp)
					if err != nil {
						return 0, err
					}
					if !bytes.Equal(raw, want) {
						return 0, fmt.Errorf("bench: %d-shard response differs from single cloud", nShards)
					}
				}
			}
			return total / reps, nil
		}
		orderDur, err := measure(orderReq, wantOrderRaw)
		if err != nil {
			return nil, err
		}
		eqDur, err := measure(eqReq, nil)
		if err != nil {
			return nil, err
		}

		maxEntries := 0
		statuses, err := router.ShardStats()
		if err != nil {
			return nil, err
		}
		for _, st := range statuses {
			if st.Stats != nil && st.Stats.IndexEntries > maxEntries {
				maxEntries = st.Stats.IndexEntries
			}
		}
		t.AddRow(strconv.Itoa(nShards), fmt.Sprint(initDur),
			fmt.Sprint(orderDur), fmt.Sprint(eqDur), strconv.Itoa(maxEntries))

		_ = cli.Close()
		_ = router.Close()
		for _, srv := range servers {
			_ = srv.Close()
		}
	}
	t.AddNote("both rows speak real loopback RPC through the router; order responses are asserted byte-identical to an embedded single cloud; %d tokens per order query", len(orderReq.Tokens))
	return t, nil
}
