// Command slicer-chain runs a proof-of-authority blockchain network with
// the Slicer verification contract registered, exposed over the wire
// protocol. Demo accounts (owner/user/cloud, derived from the names passed
// to -fund) are pre-funded at genesis.
//
// Usage:
//
//	slicer-chain -listen 0.0.0.0:7402 -validators 3 -fund owner,user,cloud -data-dir /var/lib/slicer-chain
//
// With -data-dir every sealed block is journaled to a write-ahead log
// before the step is acknowledged and the chain is periodically folded
// into an atomic snapshot; a restart (crash included) replays blocks
// through full validation back to the exact state and receipt roots.
package main

import (
	"flag"
	"fmt"
	"strings"

	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/serve"
	"slicer/internal/wire"
)

func main() {
	validators := flag.Int("validators", 3, "number of PoA validators")
	fund := flag.String("fund", "owner,user,cloud", "comma-separated account names to pre-fund")
	balance := flag.Uint64("balance", 1<<40, "genesis balance per funded account")
	serve.Main(serve.Spec{
		Name:   "slicer-chain",
		Listen: "127.0.0.1:7402",
		Party:  "chain",
		Methods: []string{wire.MethodChainSubmit, wire.MethodChainStep, wire.MethodChainReceipt,
			wire.MethodChainBalance, wire.MethodChainNonce, wire.MethodChainCall, wire.MethodChainHeight},
		Build: func(env *serve.Env) (serve.Server, error) {
			network, err := boot(env, *validators, *fund, *balance)
			if err != nil {
				return nil, err
			}
			env.Detail = func() string {
				return fmt.Sprintf("%d validators, height %d", *validators, network.Leader().Height())
			}
			return wire.NewChainServer(network), nil
		},
	})
}

// boot builds the genesis network: the contract registry, the validator
// set and the funded accounts.
func boot(env *serve.Env, validators int, fund string, balance uint64) (*chain.Network, error) {
	if validators < 1 {
		return nil, fmt.Errorf("need at least one validator")
	}
	registry := chain.NewRegistry()
	if err := contract.Register(registry); err != nil {
		return nil, err
	}
	vals := make([]chain.Address, validators)
	for i := range vals {
		vals[i] = chain.AddressFromString(fmt.Sprintf("validator-%d", i))
	}
	alloc := make(map[chain.Address]uint64)
	for _, name := range strings.Split(fund, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a := chain.AddressFromString(name)
		alloc[a] = balance
		fmt.Fprintf(env.Out, "funded %-8s %s with %d\n", name, a, balance)
	}
	return chain.NewNetwork(registry, vals, alloc)
}
