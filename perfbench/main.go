// Command perfbench is the repository benchmark: one load-generator
// process that holds the data owner and the data user and drives the
// repository's own server binaries — slicer-cloud, slicer-chain with three
// PoA validators and, for one workload, slicer-router over three cloud
// shards — over loopback. It times each layer from outside, around calls
// into its public functions, reads counts from the servers' /metrics, checks
// every result against the plaintext answer, and prints one JSON result as
// its last line of output.
//
//	bash perfbench/run.sh --workload order-search --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"slicer/internal/core"
	"slicer/internal/obs"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string
	out      string
	delay    time.Duration
}

const (
	// nSetups is how many full deployments a run sets up; setup_s is their
	// median. All but the last host the write side of workloads without
	// concurrent inserts, so the searches run on an untouched one.
	nSetups = 3
	// warmup is how long untimed search rounds run before the window.
	warmup = 500 * time.Millisecond
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: order-search, equality-paced, insert-mix or order-search-sharded")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the data, query stream and insert batches")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding slicer-cloud, slicer-chain and slicer-router")
	flag.StringVar(&o.out, "out", ".bench_build/runs", "directory for server logs, data directories and span dumps")
	flag.DurationVar(&o.delay, "cloud-delay", 0, "sensitivity check: delay every client→cloud chunk by this much through a loopback proxy")
	flag.Parse()
	o.trace = trace == 1
	if o.workload == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload, -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome: the JSON summary printed last plus the details
// printed above it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order    []string
	samples  map[string]int
	labels   map[string]string
	details  []string
	env      map[string]any
	failures []string
}

func (r *result) put(name string, v float64, unit string, n int, label string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
	r.samples[name] = n
	r.labels[name] = label
}

func (r *result) print(w *os.File) {
	for _, line := range r.details {
		fmt.Fprintln(w, line)
	}
	env, _ := json.Marshal(r.env)
	fmt.Fprintf(w, "env %s\n", env)
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.4f %-6s n=%-6d %s\n", name, m.Value, m.Unit, r.samples[name], r.labels[name])
	}
	b, _ := json.Marshal(r) // the exported fields only
	fmt.Fprintln(w, string(b))
}

// tally counts attempted operations and classifies failures.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     []string // incorrect outputs: wrong IDs, honest refunds, accepted tampering
}

func (t *tally) record(what string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	msg := fmt.Sprintf("%s: %v", what, err)
	if len(t.wrong) < 20 {
		t.wrong = append(t.wrong, msg)
	}
}

func run(o options) (*result, error) {
	sp, err := specByName(o.workload)
	if err != nil {
		return nil, err
	}
	in := genInputs(sp, o.seed)
	runDir, err := filepath.Abs(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%t-pid%d", sp.name, o.seed, o.trace, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	bins, err := filepath.Abs(o.bin)
	if err != nil {
		return nil, err
	}

	// Set-up, several times over: each is a fresh set of server processes,
	// fresh keys and a fresh Build of the same records; the last one stays up
	// for the searches. Workloads without concurrent inserts measure their
	// write side on the others, so neither side runs on a chain or cloud the
	// other has grown.
	var (
		t                     tally
		setups, builds, inits []float64
		d                     *deployment
		inserts               []*insertSample
		insTime               time.Duration
	)
	for i := 0; i < nSetups; i++ {
		dd, err := deploy(bins, filepath.Join(runDir, fmt.Sprintf("setup%d", i)), sp.shape, in.db)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, dd.setup.Seconds())
		builds = append(builds, dd.buildTime.Seconds())
		inits = append(inits, dd.initTime.Seconds())
		if i < nSetups-1 && sp.insertRate == 0 {
			ins, elapsed, err := writeSide(dd, sp, in, o.trace, &t)
			if err != nil {
				dd.stop()
				return nil, err
			}
			inserts = append(inserts, ins...)
			insTime += elapsed
		}
		if i < nSetups-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	// Clients and the proxy close before the servers stop: a server waits
	// for its open connections on shutdown.
	var closers []func()
	shutdown := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		closers = nil
	}
	defer shutdown()
	closers = append(closers, d.stop)

	book := newAcBook(d.baseAc)
	user, err := core.NewUser(d.owner.ClientState())
	if err != nil {
		return nil, err
	}
	u := &userView{user: user, db: in.db}
	sess, err := newSession(d, book, o.seed)
	if err != nil {
		return nil, err
	}
	closers = append(closers, sess.close)
	if o.delay > 0 {
		p, err := startDelayProxy(d.front.addr, o.delay)
		if err != nil {
			return nil, err
		}
		closers = append(closers, p.close)
		if err := sess.cloudVia(p.addr()); err != nil {
			return nil, err
		}
	}
	owner, err := newOwnerSide(d, book)
	if err != nil {
		return nil, err
	}
	closers = append(closers, owner.close)

	// Warm-up: untimed rounds of the workload's own query stream.
	for end := time.Now().Add(warmup); time.Now().Before(end); {
		_, err := sess.round(u, in.query(sp, u.db, 0), time.Time{}, false, false)
		t.record("warm-up round", err)
	}

	before, err := d.scrapeAll()
	if err != nil {
		return nil, err
	}
	steal0 := readCPUTicks()
	var (
		rounds []*roundSample
		winDur time.Duration // until the last round ended
	)
	tracedRound := func(i int) bool { return o.trace && i%2 == 0 }
	window := time.Duration(o.seconds) * time.Second
	winStart := time.Now()
	deadline := winStart.Add(window)
	next := 0 // next record of the insert stream
	batchOf := func() []core.Record {
		b := in.inserts[next : next+sp.batch]
		next += sp.batch
		return b
	}
	doRound := func(i int, q core.Query, due time.Time) {
		smp, err := sess.round(u, q, due, tracedRound(i), false)
		t.record(fmt.Sprintf("round %d (%v)", i, q), err)
		if err == nil {
			rounds = append(rounds, smp)
		}
	}

	switch {
	case sp.insertRate > 0:
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer book.close()
			interval := time.Duration(float64(time.Second) / sp.insertRate)
			for i := 0; ; i++ {
				due := winStart.Add(time.Duration(i) * interval)
				if !due.Before(deadline) || next+sp.batch > len(in.inserts) {
					break
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				var tr *obs.Trace
				if o.trace {
					tr = obs.NewTrace("insert")
				}
				late := time.Since(due)
				smp, err := owner.insert(batchOf(), tr)
				t.record("insert batch", err)
				if err != nil {
					return
				}
				smp.late = late
				inserts = append(inserts, smp)
			}
			insTime = time.Since(winStart)
		}()
		prev := winStart
		for i := 0; time.Now().Before(deadline); i++ {
			owner.refresh(u)
			doRound(i, in.query(sp, u.db, sp.batch), prev)
			prev = time.Now()
		}
		winDur = prev.Sub(winStart)
		wg.Wait()
	case sp.rate > 0:
		interval := time.Duration(float64(time.Second) / sp.rate)
		for i := 0; ; i++ {
			due := winStart.Add(time.Duration(i) * interval)
			if !due.Before(deadline) {
				break
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			doRound(i, in.query(sp, u.db, 0), due)
		}
		winDur = time.Since(winStart)
	default:
		prev := winStart
		for i := 0; time.Now().Before(deadline); i++ {
			doRound(i, in.query(sp, u.db, 0), prev)
			prev = time.Now()
		}
		winDur = time.Since(winStart)
	}
	mid, err := d.scrapeAll()
	if err != nil {
		return nil, err
	}
	stealPct := readCPUTicks().stealPctSince(steal0)

	// The canary: a round whose response loses one encrypted handle must be
	// refunded. It is left out of every metric.
	owner.refresh(u)
	canaryQ := core.Equal(u.db[in.rng.Intn(len(u.db))].Attrs[0].Value)
	_, err = sess.round(u, canaryQ, time.Time{}, false, true)
	t.record("canary round (dropped ER)", err)
	canaryOK := err == nil

	if sp.insertRate > 0 {
		checkInserted(sess, owner, u, &t)
	}
	after, err := d.scrapeAll()
	if err != nil {
		return nil, err
	}
	rss, err := d.rssMB()
	if err != nil {
		return nil, err
	}
	height, err := sess.chain.Height()
	if err != nil {
		return nil, err
	}

	res := &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metric),
		samples:   make(map[string]int),
		labels:    make(map[string]string),
		failures:  t.wrong,
		env:       envStamp(o, sp),
	}
	res.env["hostStealPct"] = stealPct
	if len(rounds) == 0 || len(inserts) == 0 {
		return nil, fmt.Errorf("no successful rounds (%d) or insert batches (%d): %s", len(rounds), len(inserts), strings.Join(t.wrong, "; "))
	}
	m := measures{sp: sp, d: d, rounds: rounds, inserts: inserts, insTime: insTime,
		winDur: winDur, setups: setups, builds: builds, inits: inits, rss: rss, height: height,
		before: before, mid: mid, after: after}
	if o.trace {
		m.perLayer(res)
		if err := m.writeSpans(runDir); err != nil {
			return nil, err
		}
	} else {
		m.endToEnd(res)
	}
	upd := m.insertField(func(s *insertSample) float64 { return ms(s.update) })
	res.details = append(res.details, fmt.Sprintf("insert batches: update p50 %.2fms max %.2fms, total max %.2fms, owner lateness max %.2fms",
		median(upd), quantile(upd, 1), quantile(m.insertField(func(s *insertSample) float64 { return ms(s.total) }), 1),
		quantile(m.insertField(func(s *insertSample) float64 { return ms(s.late) }), 1)))
	res.details = append(res.details, fmt.Sprintf("workload %s seed %d: %d rounds in %.2fs, %d insert batches (%d records) in %.2fs, canary refunded=%t, failed %d/%d (failed_frac %.4f)",
		sp.name, o.seed, len(rounds), winDur.Seconds(), len(inserts), len(inserts)*sp.batch, insTime.Seconds(), canaryOK, t.failed, t.attempted, float64(t.failed)/float64(t.attempted)))
	// Server data directories can be large; logs and span dumps stay.
	shutdown()
	for i := 0; i < nSetups; i++ {
		for _, name := range []string{"chain", "cloud", "router", "shard0", "shard1", "shard2"} {
			_ = os.RemoveAll(filepath.Join(runDir, fmt.Sprintf("setup%d", i), name))
		}
	}
	return res, nil
}

// envStamp records what the numbers were measured on and with.
func envStamp(o options, sp spec) map[string]any {
	return map[string]any{
		"gitSha": gitSHA(), "goVersion": runtime.Version(), "GOMAXPROCS": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "workload": sp.name, "seed": o.seed, "seconds": o.seconds,
		"trace": o.trace, "setups": nSetups, "records": sp.shape.Records, "bits": sp.shape.Bits,
		"modulusBits": sp.shape.ModBits, "shards": sp.shape.Shards, "fsync": fsyncLabel(sp),
		"ratePerSec": sp.rate, "insertBatch": sp.batch, "writeBatches": sp.writes,
		"insertRatePerSec": sp.insertRate, "warmup": warmup.String(), "rebuildThreshold": sp.shape.Rebuild, "cloudDelay": o.delay.String(),
		"labels": "setup_s/core.build_s/wire.init_s are cold (fresh processes, fresh keys); round and insert figures are hot (after warm-up)",
	}
}

// gitSHA reads the checkout's HEAD commit from .git without running git,
// which would look outside the checkout; "unknown" when there is none.
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func fsyncLabel(sp spec) string {
	if sp.shape.Fsync == "" {
		return "no -data-dir (in-memory servers)"
	}
	return "-data-dir with -fsync " + sp.shape.Fsync
}

// measures turns a run's samples into metrics.
type measures struct {
	sp                 spec
	d                  *deployment
	rounds             []*roundSample
	inserts            []*insertSample
	insTime, winDur    time.Duration
	setups, builds     []float64
	inits              []float64
	rss                float64
	height             uint64
	before, mid, after map[string]map[string]float64
}

func (m *measures) latencies(traced *bool) []float64 {
	var xs []float64
	for _, r := range m.rounds {
		if traced != nil && (r.trace != nil) != *traced {
			continue
		}
		xs = append(xs, ms(r.latency(m.sp.rate > 0)))
	}
	return xs
}

func (m *measures) roundField(f func(*roundSample) float64) []float64 {
	xs := make([]float64, 0, len(m.rounds))
	for _, r := range m.rounds {
		xs = append(xs, f(r))
	}
	return xs
}

func (m *measures) insertField(f func(*insertSample) float64) []float64 {
	xs := make([]float64, 0, len(m.inserts))
	for _, s := range m.inserts {
		xs = append(xs, f(s))
	}
	return xs
}

// delta is a counter's growth between two scrapes, summed over servers.
func delta(a, b map[string]map[string]float64, name string, labels ...string) float64 {
	var sum float64
	for srv, mb := range b {
		sum += family(mb, name, labels...) - family(a[srv], name, labels...)
	}
	return sum
}

func (m *measures) endToEnd(r *result) {
	lat := m.latencies(nil)
	n := len(lat)
	records := 0
	for _, s := range m.inserts {
		records += s.records
	}
	ins := m.insertField(func(s *insertSample) float64 { return ms(s.total) })
	gas := m.roundField(func(s *roundSample) float64 { return float64(s.gas) })
	r.put("setup_s", median(m.setups), "s", len(m.setups), "cold, median of full set-ups")
	r.put("search_p50_ms", median(lat), "ms", n, "hot")
	r.put("search_p90_ms", quantile(lat, 0.9), "ms", n, "hot")
	r.put("searches_per_s", float64(n)/m.winDur.Seconds(), "1/s", n, "hot, settled rounds")
	r.put("verify_gas_per_search", mean(gas), "gas", n, "mean gas of the result submission")
	r.put("insert_p50_ms", median(ins), "ms", len(ins), "hot")
	r.put("insert_p90_ms", quantile(ins, 0.9), "ms", len(ins), "hot")
	r.put("records_inserted_per_s", float64(records)/m.insTime.Seconds(), "1/s", len(ins), "hot, rebuilds included")
	r.put("server_rss_mb", m.rss, "MB", len(m.d.procs), "peak VmHWM summed over servers")
}

func (m *measures) perLayer(r *result) {
	n := len(m.rounds)
	phase := func(i int, unit func(time.Duration) float64) []float64 {
		return m.roundField(func(s *roundSample) float64 { return unit(s.phases[i]) })
	}
	var traced []*roundSample
	for _, s := range m.rounds {
		if s.trace != nil {
			traced = append(traced, s)
		}
	}
	nt := len(traced)
	tf := func(f func(*roundSample) float64) []float64 {
		xs := make([]float64, 0, nt)
		for _, s := range traced {
			xs = append(xs, f(s))
		}
		return xs
	}
	searches := delta(m.before, m.mid, "slicer_rpc_requests_total", `method="cloud.search"`, `server="`+m.d.front.name+`"`)
	if searches == 0 {
		searches = 1
	}
	records := 0
	for _, s := range m.inserts {
		records += s.records
	}

	r.put("core.token_us", median(phase(phToken, us)), "us", n, "hot")
	r.put("core.decrypt_us", median(phase(phDecrypt, us)), "us", n, "hot")
	r.put("contract.submit_encode_us", median(phase(phEncode, us)), "us", n, "hot")
	r.put("core.tokens_per_search", mean(m.roundField(func(s *roundSample) float64 { return float64(s.tokens) })), "count", n, "")
	r.put("core.results_per_search", mean(m.roundField(func(s *roundSample) float64 { return float64(s.results) })), "count", n, "")
	r.put("core.build_s", median(m.builds), "s", len(m.builds), "cold")
	r.put("core.insert_ms", median(m.insertField(func(s *insertSample) float64 { return ms(s.insert) })), "ms", len(m.inserts), "hot")
	r.put("core.insert_ads_ms", median(m.insertField(func(s *insertSample) float64 { return ms(s.ads) })), "ms", len(m.inserts), "hot, UpdateStats.ADSDuration")
	r.put("core.new_primes_per_insert", mean(m.insertField(func(s *insertSample) float64 { return float64(s.newPrimes) })), "count", len(m.inserts), "UpdateStats.NewPrimes")

	r.put("wire.search_ms", median(phase(phSearch, ms)), "ms", n, "hot, CloudClient.Search")
	r.put("wire.search_resp_kb", delta(m.before, m.mid, "slicer_rpc_response_bytes_sum", `method="cloud.search"`, `server="`+m.d.front.name+`"`)/searches/1024, "KB", int(searches), "server /metrics")
	r.put("wire.search_transit_ms", median(tf(func(s *roundSample) float64 {
		return ms(spanSum(s.trace, "rpc:cloud.search") - spanSumParty(s.trace, "handle:cloud.search", "cloud"))
	})), "ms", nt, "traced: rpc:cloud.search minus the server's handle:cloud.search")
	r.put("wire.rpcs_per_search", mean(m.roundField(func(s *roundSample) float64 { return float64(s.rpcs) })), "count", n, "")
	r.put("wire.init_s", median(m.inits), "s", len(m.inits), "cold")
	r.put("wire.update_ms", median(m.insertField(func(s *insertSample) float64 { return ms(s.update) })), "ms", len(m.inserts), "hot")

	r.put("cloud.collect_ms", median(tf(func(s *roundSample) float64 {
		return ms(spanSum(s.trace, "cloud.collect", "router.collect"))
	})), "ms", nt, "traced, busy time summed over tokens")
	r.put("cloud.witness_ms", median(tf(func(s *roundSample) float64 {
		return ms(spanSum(s.trace, "cloud.witness", "router.witness"))
	})), "ms", nt, "traced, busy time summed over tokens")

	r.put("chain.escrow_ms", median(phase(phEscrow, ms)), "ms", n, "hot")
	r.put("chain.settle_ms", median(phase(phSettle, ms)), "ms", n, "hot")
	r.put("chain.seal_ms", median(tf(func(s *roundSample) float64 { return ms(sealInside(s.trace, phaseNames[phSettle])) })), "ms", nt, "traced, server span incl. contract verify")
	r.put("chain.setac_ms", median(m.insertField(func(s *insertSample) float64 { return ms(s.setac) })), "ms", len(m.inserts), "hot")
	retries := 0
	for _, s := range m.rounds {
		retries += s.retries
	}
	r.put("chain.stale_resubmits", float64(retries), "count", n, "stale-Ac reverts resubmitted")
	r.put("chain.height_end", float64(m.height), "count", 1, "")

	r.put("shard.mget_calls_per_search", delta(m.before, m.mid, "slicer_shard_mget_total")/searches, "count", int(searches), "router /metrics")
	r.put("shard.scatter_rpcs_per_search", mean(tf(func(s *roundSample) float64 { return float64(spanCount(s.trace, "rpc:", "scatter:")) })), "count", nt, "traced")

	wal := delta(m.before, m.after, "slicer_wal_records_total")
	r.put("durable.wal_appends", wal, "count", 1, "all servers, window and inserts")
	r.put("durable.fsyncs", delta(m.before, m.after, "slicer_wal_fsync_seconds_count"), "count", 1, "all servers")
	r.put("durable.wal_bytes_per_record", delta(m.before, m.after, "slicer_wal_appended_bytes_total")/float64(max(records, 1)), "B", records, "per inserted record")
	r.put("audit.records", delta(m.before, m.after, "slicer_audit_records_total"), "count", 1, "all servers")

	r.put("loadgen.late_ms", median(m.roundField(func(s *roundSample) float64 { return ms(s.late) })), "ms", n, "start minus due (closed loop: previous round's end)")
	r.put("round.unattributed_ms", median(m.roundField(func(s *roundSample) float64 {
		var sum time.Duration
		for _, p := range s.phases {
			sum += p
		}
		return ms(s.total - sum)
	})), "ms", n, "round minus the sum of its client phases")
	yes, no := true, false
	tp50, up50 := median(m.latencies(&yes)), median(m.latencies(&no))
	r.put("trace.overhead_pct", 100*(tp50/up50-1), "%", n, fmt.Sprintf("traced p50 %.4fms vs untraced %.4fms, alternating rounds", tp50, up50))

	// Per-span self times (median per traced round), for the report.
	self := make(map[string][]float64)
	for _, s := range traced {
		for k, v := range selfTimes(spanTree(s.trace, s.total)) {
			self[k] = append(self[k], ms(v))
		}
	}
	keys := make([]string, 0, len(self))
	for k := range self {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return median(self[keys[i]]) > median(self[keys[j]]) })
	r.details = append(r.details, fmt.Sprintf("self time per traced round (median over %d rounds, ms):", nt))
	for _, k := range keys {
		r.details = append(r.details, fmt.Sprintf("  %-40s %10.4f", k, median(self[k])))
	}
}

// writeSpans dumps every traced round and insert batch, kept in memory
// during the run, as JSON.
func (m *measures) writeSpans(dir string) error {
	type dump struct {
		Kind    string           `json:"kind"`
		TotalNs time.Duration    `json:"totalNs"`
		Spans   []obs.SpanRecord `json:"spans"`
	}
	var out []dump
	for _, s := range m.rounds {
		if s.trace != nil {
			out = append(out, dump{"search", s.total, s.trace.Spans()})
		}
	}
	for _, s := range m.inserts {
		if s.trace != nil {
			out = append(out, dump{"insert", s.total, s.trace.Spans()})
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644)
}

// writeWarmup is how many untimed batches precede a write side's timed ones.
const writeWarmup = 4

// writeSide runs a workload's closed-loop insert batches on the quiescent
// deployment d, after writeWarmup untimed ones, then checks that the last
// inserted record is found.
func writeSide(d *deployment, sp spec, in *inputs, trace bool, t *tally) ([]*insertSample, time.Duration, error) {
	book := newAcBook(d.baseAc)
	owner, err := newOwnerSide(d, book)
	if err != nil {
		return nil, 0, err
	}
	defer owner.close()
	sess, err := newSession(d, book, -1)
	if err != nil {
		return nil, 0, err
	}
	defer sess.close()
	user, err := core.NewUser(d.owner.ClientState())
	if err != nil {
		return nil, 0, err
	}
	var (
		inserts []*insertSample
		start   time.Time
	)
	for b := 0; b < writeWarmup+sp.writes; b++ {
		if b == writeWarmup {
			start = time.Now()
		}
		var tr *obs.Trace
		if trace && b >= writeWarmup {
			tr = obs.NewTrace("insert")
		}
		smp, err := owner.insert(in.inserts[b*sp.batch:(b+1)*sp.batch], tr)
		t.record("insert batch", err)
		if err != nil {
			return nil, 0, err
		}
		if b >= writeWarmup {
			inserts = append(inserts, smp)
		}
	}
	elapsed := time.Since(start)
	checkInserted(sess, owner, &userView{user: user, db: d.db}, t)
	return inserts, elapsed, nil
}

// checkInserted searches the last record the owner inserted; the round
// must settle and return it.
func checkInserted(sess *session, owner *ownerSide, u *userView, t *tally) {
	owner.refresh(u)
	if len(u.db) == len(sess.d.db) {
		return
	}
	last := u.db[len(u.db)-1]
	_, err := sess.round(u, core.Equal(last.Attrs[0].Value), time.Time{}, false, false)
	t.record("post-insert check round", err)
}
