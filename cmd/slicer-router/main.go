// Command slicer-router fronts a fleet of slicer-cloud shards as one cloud:
// owners initialize and update through it, users search through it, and the
// responses — bytes, verification objects, even error text — are identical
// to a single cloud holding the union index.
//
// Usage:
//
//	slicer-router -listen 0.0.0.0:7400 \
//	  -shards s1=10.0.0.1:7401,s2=10.0.0.2:7401,s3=10.0.0.3:7401 \
//	  -data-dir /var/lib/slicer-router
//
// Placement is a consistent-hash ring over index-label address prefixes.
// With -data-dir the routing table (every epoch) and the deployment's
// trapdoor key are journaled before any RPC is acknowledged, so a restarted
// router resumes with its exact acknowledged view. Range moves between
// shards are driven over the admin surface (slicer-cli rebalance) while
// searches keep flowing.
package main

import (
	"flag"
	"fmt"
	"strings"

	"slicer/internal/serve"
	"slicer/internal/shard"
	"slicer/internal/wire"
)

// parseShards turns "id=addr,id=addr" into an ordered spec list.
func parseShards(spec string) ([]shard.ShardSpec, error) {
	var specs []shard.ShardSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad shard %q (want id=host:port)", part)
		}
		specs = append(specs, shard.ShardSpec{ID: kv[0], Addr: kv[1]})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-shards needs at least one id=host:port entry")
	}
	return specs, nil
}

func main() {
	shardsFlag := flag.String("shards", "", "shard fleet: comma-separated id=host:port (required)")
	dialTO := flag.Duration("dial-timeout", wire.DefaultDialTimeout, "timeout for connecting to a shard")
	callTO := flag.Duration("call-timeout", wire.DefaultCallTimeout, "per-shard-RPC deadline; 0 or negative disables")
	serve.Main(serve.Spec{
		Name:   "slicer-router",
		Listen: "127.0.0.1:7400",
		Build: func(env *serve.Env) (serve.Server, error) {
			if *shardsFlag == "" {
				return nil, fmt.Errorf("-shards is required (e.g. -shards s1=127.0.0.1:7411,s2=127.0.0.1:7412)")
			}
			specs, err := parseShards(*shardsFlag)
			if err != nil {
				return nil, err
			}
			client := wire.ClientOptions{DialTimeout: *dialTO, CallTimeout: *callTO}
			if *callTO <= 0 {
				client.CallTimeout = -1
			}
			router, err := shard.NewRouter(shard.Options{
				Shards:   specs,
				Registry: env.Registry,
				Logger:   env.Logger,
				Client:   client,
			})
			if err != nil {
				return nil, err
			}
			env.Detail = func() string {
				table := router.Table()
				return fmt.Sprintf("%d shards, table epoch %d (%d segments)", len(specs), table.Epoch, len(table.Segments))
			}
			return router, nil
		},
	})
}
