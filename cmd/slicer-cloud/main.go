// Command slicer-cloud runs the untrusted search server: it stores the
// encrypted index and the ADS prime list shipped by a data owner and
// answers search requests with verification objects (Algorithm 4).
//
// Usage:
//
//	slicer-cloud -listen 0.0.0.0:7401 -data-dir /var/lib/slicer-cloud
//
// The server starts empty; a data owner initializes it over the wire
// protocol (see cmd/slicer-cli and examples/distributed). With -data-dir
// every state-mutating RPC is journaled to a write-ahead log before it is
// acknowledged and the full state is periodically folded into an atomic
// snapshot, so a crash (kill -9 included) recovers to the exact
// acknowledged state on restart.
package main

import (
	"slicer/internal/serve"
	"slicer/internal/wire"
)

func main() { serve.Main(spec()) }

func spec() serve.Spec {
	return serve.Spec{
		Name:    "slicer-cloud",
		Listen:  "127.0.0.1:7401",
		Party:   "cloud",
		Methods: []string{wire.MethodCloudInit, wire.MethodCloudUpdate, wire.MethodCloudSearch, wire.MethodCloudStats},
		Build: func(*serve.Env) (serve.Server, error) {
			return wire.NewCloudServer(), nil
		},
	}
}
