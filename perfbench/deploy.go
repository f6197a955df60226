package main

import (
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sync"
	"time"

	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/wire"
	"slicer/internal/workload"
)

// Protocol accounts; slicer-chain funds these names at genesis.
var (
	ownerAcct = chain.AddressFromString("owner")
	userAcct  = chain.AddressFromString("user")
	cloudAcct = chain.AddressFromString("cloud")
)

// shape fixes the deployment a workload runs against.
type shape struct {
	Records int    // records in the initial Build
	Bits    int    // value width (16: the paper's setting)
	ModBits int    // trapdoor and accumulator modulus size
	Shards  int    // 0: clients talk to one slicer-cloud directly
	Fsync   string // non-empty: servers run with -data-dir and this WAL policy
	// Rebuild pins core.Params.RebuildThreshold (0: the default policy).
	Rebuild int
}

func (s shape) params() core.Params {
	return core.Params{Bits: s.Bits, TrapdoorBits: s.ModBits, AccumulatorBits: s.ModBits, RebuildThreshold: s.Rebuild}
}

// deployment is one running Slicer system: the server processes, the
// owner that built it, and the deployed contract.
type deployment struct {
	procs    []*server
	front    *server // what clients search through: the cloud, or the router
	chainSrv *server

	owner    *core.Owner
	db       []core.Record
	accPub   []byte // marshaled accumulator public parameters
	contract chain.Address
	baseAc   *big.Int

	setup     time.Duration // spawn → ready for the first round
	buildTime time.Duration // Owner.Build
	initTime  time.Duration // cloud.init RPC (through the router when sharded)
}

// deploy spawns the servers of sh under dir, builds db with a fresh owner,
// initializes the cloud tier and deploys the contract.
func deploy(bins, dir string, sh shape, db []core.Record) (_ *deployment, err error) {
	start := time.Now()
	d := &deployment{db: db}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	durableArgs := func(name string) []string {
		if sh.Fsync == "" {
			return nil
		}
		return []string{"-data-dir", filepath.Join(dir, name), "-fsync", sh.Fsync}
	}
	spawn := func(name, bin string, args ...string) (*server, error) {
		s, err := startServer(name, filepath.Join(bins, bin), filepath.Join(dir, name+".log"), args...)
		if err != nil {
			return nil, err
		}
		d.procs = append(d.procs, s)
		return s, nil
	}
	if d.chainSrv, err = spawn("chain", "slicer-chain", append([]string{"-validators", "3"}, durableArgs("chain")...)...); err != nil {
		return nil, err
	}
	if sh.Shards == 0 {
		if d.front, err = spawn("cloud", "slicer-cloud", durableArgs("cloud")...); err != nil {
			return nil, err
		}
	} else {
		spec := ""
		for i := 0; i < sh.Shards; i++ {
			name := fmt.Sprintf("shard%d", i)
			s, err := spawn(name, "slicer-cloud", durableArgs(name)...)
			if err != nil {
				return nil, err
			}
			if spec != "" {
				spec += ","
			}
			spec += name + "=" + s.addr
		}
		if d.front, err = spawn("router", "slicer-router", append([]string{"-shards", spec}, durableArgs("router")...)...); err != nil {
			return nil, err
		}
	}

	if d.owner, err = core.NewOwner(sh.params()); err != nil {
		return nil, err
	}
	t := time.Now()
	built, err := d.owner.Build(db)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	d.buildTime = time.Since(t)

	cc, err := wire.DialCloudOpts(d.front.addr, wire.ClientOptions{CallTimeout: -1})
	if err != nil {
		return nil, err
	}
	defer cc.Close()
	t = time.Now()
	if err := cc.Init(d.owner.CloudInit(built.Index), true); err != nil {
		return nil, fmt.Errorf("cloud init: %w", err)
	}
	d.initTime = time.Since(t)

	ch, err := wire.DialChain(d.chainSrv.addr)
	if err != nil {
		return nil, err
	}
	defer ch.Close()
	d.accPub = d.owner.AccumulatorPub().Marshal()
	d.baseAc = d.owner.Ac()
	rc, err := ch.Mine(contract.DeployTx(ownerAcct, 0, d.accPub, d.baseAc, 50_000_000))
	if err != nil {
		return nil, fmt.Errorf("deploy contract: %w", err)
	}
	if !rc.Status {
		return nil, fmt.Errorf("deploy contract reverted: %s", rc.Err)
	}
	d.contract = rc.ContractAddress
	d.setup = time.Since(start)
	return d, nil
}

// stop shuts every server down and waits for each to exit.
func (d *deployment) stop() {
	var wg sync.WaitGroup
	for _, s := range d.procs {
		wg.Add(1)
		go func(s *server) {
			defer wg.Done()
			s.stop()
		}(s)
	}
	wg.Wait()
	d.procs = nil
}

// rssMB sums the peak resident set size of every server process.
func (d *deployment) rssMB() (float64, error) {
	var sum float64
	for _, s := range d.procs {
		v, err := s.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// scrapeAll reads /metrics from every server, keyed by server name.
func (d *deployment) scrapeAll() (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64, len(d.procs))
	for _, s := range d.procs {
		m, err := s.scrape()
		if err != nil {
			return nil, err
		}
		out[s.name] = m
	}
	return out, nil
}

// genRecords draws n uniform records with IDs from firstID, from seed.
func genRecords(sh shape, n int, firstID uint64, seed int64) []core.Record {
	return workload.Generate(workload.Config{N: n, Bits: sh.Bits, Seed: seed, FirstID: firstID})
}
