package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/obs"
	"slicer/internal/store"
	"slicer/internal/wire"
)

// spec is one benchmark workload. Every workload has a read side (search
// rounds) and a write side (owner insert batches), so every run reports
// both units of work the paper evaluates.
type spec struct {
	name  string
	shape shape
	// order: Less/Greater with uniform thresholds; otherwise equality on
	// stored values.
	order bool
	// rate > 0 paces the searches at that many rounds per second, each
	// timed from when it was due; 0 runs one closed-loop client.
	rate float64
	// insertRate > 0: an owner paced at this many batches per second
	// inserts beside the searches for the whole window. The owner is one
	// sequential actor, so a batch is timed from its start and lateness is
	// reported apart. Otherwise writes closed-loop batches run on each
	// set-up's deployment but the last, apart from the searches.
	insertRate float64
	batch      int // records per insert batch
	writes     int // timed closed-loop batches (insertRate == 0)
}

// specs are the benchmark's workloads; why each exists is in BENCHMARK.json
// and README.md.
var specs = []spec{
	{name: "order-search", shape: shape{Records: 800, Bits: 16, ModBits: 512}, order: true, batch: 4, writes: 20},
	{name: "equality-paced", shape: shape{Records: 800, Bits: 16, ModBits: 512}, rate: 30, batch: 4, writes: 20},
	// insert-mix pins the rebuild threshold between 3 and 4 batches' worth of
	// new primes (~120 each), so every run rebuilds the witness cache on
	// every fourth batch; the default policy (a quarter of all primes) moves
	// the rebuild points with the data, and with them the run's tail.
	{name: "insert-mix", shape: shape{Records: 120, Bits: 16, ModBits: 512, Fsync: "100ms", Rebuild: 420}, insertRate: 2, batch: 8},
	{name: "order-search-sharded", shape: shape{Records: 800, Bits: 16, ModBits: 512, Shards: 3}, order: true, batch: 4, writes: 20},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are everything a run sends the system, generated from the seed.
type inputs struct {
	db      []core.Record // initial Build
	inserts []core.Record // insert stream, IDs after db's
	rng     *rand.Rand    // query stream
}

func genInputs(sp spec, seed int64) *inputs {
	n := sp.shape.Records
	return &inputs{
		db:      genRecords(sp.shape, n, 1, seed),
		inserts: genRecords(sp.shape, 4096, uint64(n)+1, seed+1),
		rng:     rand.New(rand.NewSource(seed + 2)),
	}
}

// query draws the next search of the workload's stream over db, the
// records the user's view covers. recent > 0 makes half of the equality
// queries hit one of the last recent records.
func (in *inputs) query(sp spec, db []core.Record, recent int) core.Query {
	if sp.order {
		v := uint64(in.rng.Int63n(1 << uint(sp.shape.Bits)))
		if in.rng.Intn(2) == 0 {
			return core.Less(v)
		}
		return core.Greater(v)
	}
	i := in.rng.Intn(len(db))
	if recent > 0 && in.rng.Intn(2) == 0 {
		i = len(db) - 1 - in.rng.Intn(recent)
	}
	return core.Equal(db[i].Attrs[0].Value)
}

// insertSample is one timed owner batch.
type insertSample struct {
	total     time.Duration // Owner.Insert → SetAc mined → user states published
	late      time.Duration // start − due, for a paced owner
	insert    time.Duration // Owner.Insert
	ads       time.Duration // UpdateStats.ADSDuration
	update    time.Duration // CloudClient.Update
	setac     time.Duration // Nonce + Mine(SetAc)
	newPrimes int
	records   int
	trace     *obs.Trace // nil for untraced batches
}

// ownerSide inserts batches and publishes the user's refreshed view.
type ownerSide struct {
	d     *deployment
	cloud *wire.CloudClient
	chain *wire.ChainClient
	book  *acBook

	mu     sync.Mutex
	states *store.TrapdoorStates // latest trapdoor states handed to users
	db     []core.Record         // every record inserted so far, Build's first
}

func newOwnerSide(d *deployment, book *acBook) (*ownerSide, error) {
	cc, err := wire.DialCloud(d.front.addr)
	if err != nil {
		return nil, err
	}
	ch, err := wire.DialChain(d.chainSrv.addr)
	if err != nil {
		cc.Close()
		return nil, err
	}
	return &ownerSide{d: d, cloud: cc, chain: ch, book: book, db: d.db}, nil
}

func (o *ownerSide) close() {
	o.cloud.Close()
	o.chain.Close()
}

// insert ships one batch: Owner.Insert, cloud update, on-chain SetAc, and
// the refreshed trapdoor states for users. The batch's records extend the
// database users are checked against once the states are published.
func (o *ownerSide) insert(batch []core.Record, tr *obs.Trace) (*insertSample, error) {
	smp := &insertSample{records: len(batch), trace: tr}
	start := time.Now()
	end := tr.Span("core.insert")
	out, err := o.d.owner.Insert(batch)
	if err != nil {
		return nil, fmt.Errorf("insert: %w", err)
	}
	end()
	t := time.Now()
	smp.insert = t.Sub(start)
	st := o.d.owner.LastStats()
	smp.ads, smp.newPrimes = st.ADSDuration, st.NewPrimes

	end = tr.Span("wire.update")
	o.book.beginUpdate(out.Ac)
	err = o.cloud.Update(out)
	o.book.endUpdate()
	if err != nil {
		return nil, fmt.Errorf("cloud update: %w", err)
	}
	end()
	t2 := time.Now()
	smp.update = t2.Sub(t)

	end = tr.Span("chain.setac")
	nonce, err := o.chain.Nonce(ownerAcct)
	if err != nil {
		return nil, err
	}
	rc, err := o.chain.MineTraced(&chain.Transaction{
		From: ownerAcct, To: o.d.contract, Nonce: nonce,
		GasLimit: 1_000_000, Data: contract.SetAcData(out.Ac),
	}, tr)
	if err != nil {
		return nil, fmt.Errorf("SetAc: %w", err)
	}
	if !rc.Status {
		return nil, fmt.Errorf("SetAc reverted: %s", rc.Err)
	}
	o.book.chainUpdated()
	end()
	t3 := time.Now()
	smp.setac = t3.Sub(t2)

	states := o.d.owner.StatesSnapshot()
	o.mu.Lock()
	o.db = append(o.db, batch...)
	o.states = states
	o.mu.Unlock()
	smp.total = time.Since(start)
	return smp, nil
}

// refresh moves u to the newest published states, if any are newer. Only
// the goroutine that owns u may call it.
func (o *ownerSide) refresh(u *userView) {
	o.mu.Lock()
	states, db := o.states, o.db
	o.mu.Unlock()
	if states != nil && len(db) > len(u.db) {
		u.user.UpdateStates(states)
		u.db = db
	}
}
