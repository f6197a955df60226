package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"sort"
	"sync"
	"time"

	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/mhash"
	"slicer/internal/obs"
	"slicer/internal/store"
	"slicer/internal/trapdoor"
	"slicer/internal/wire"
)

// Router-only RPC methods, served next to the cloud methods the router
// proxies. Admin tooling (slicer-cli, the smoke test) drives rebalances and
// inspects placement through these.
const (
	MethodRouterTable     = "router.table"
	MethodRouterShards    = "router.shards"
	MethodRouterRebalance = "router.rebalance"
)

// DefaultBatch is how many counter probes one scatter round trip carries.
// The in-epoch walk stops at the first miss, so a batch trades one RPC for
// at most DefaultBatch-1 wasted label lookups on each epoch's final round.
const DefaultBatch = 16

// ShardSpec names one shard and where to dial it.
type ShardSpec struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Options configures a Router.
type Options struct {
	// Shards is the static shard list (at least one).
	Shards []ShardSpec
	// Registry receives slicer_shard_* series (may be nil).
	Registry *obs.Registry
	// Logger records scatter and rebalance lifecycle events (may be nil).
	Logger *slog.Logger
	// Client tunes the connections the router opens to shards.
	Client wire.ClientOptions
}

// moveWindow is the double-read window of an in-flight range move: labels
// addressed in [lo, hi) are fetched from both src and dst so a search racing
// the move sees every entry no matter which side of the cutover it lands on.
type moveWindow struct {
	lo, hi   uint64
	src, dst string
}

func (w *moveWindow) contains(addr uint64) bool {
	return addr >= w.lo && (w.hi == 0 || addr < w.hi)
}

// routerMetrics is the slicer_shard_* series (all nil-safe when no registry
// is attached).
type routerMetrics struct {
	searches    *obs.Counter
	fanout      *obs.Histogram
	mgets       *obs.CounterVec
	doubleReads *obs.Counter
	epoch       *obs.Gauge
	rebalActive *obs.Gauge
	rebalMoved  *obs.Counter
	rebalGauge  *obs.Gauge
	rebalances  *obs.CounterVec
}

// journalRec is one record of the router's WAL: a routing-table epoch, the
// init's trapdoor public key, or both. A snapshot is the journalRec of the
// router's current table and key.
type journalRec struct {
	Table       *Table `json:"table,omitempty"`
	TrapdoorPub []byte `json:"trapdoorPub,omitempty"`
}

// Router fronts N cloud shards as one Cloud: it serves the cloud.* wire
// methods itself, scattering searches and splitting init/update by address,
// so an unmodified user/owner/verifier stack works against it byte-for-byte.
// Searches fan tokens out over one worker per core, and fresh routing tables
// get DefaultVnodes points per shard.
type Router struct {
	srv     *wire.Server
	specs   []ShardSpec
	pools   map[string]*pool
	logger  *slog.Logger
	started time.Time

	mu     sync.RWMutex // guards table, tpk, window
	table  *Table
	tpk    *trapdoor.PublicKey
	window *moveWindow

	// updateMu serializes owner updates against a move's cutover phase, so
	// the final catch-up export cannot race an update into the source shard
	// after it was drained.
	updateMu sync.Mutex

	// moveGate flushes in-flight fetch rounds before a move deletes the
	// range from its source: a fetch round holds the read side across its
	// placement snapshot and its shard RPCs, and Rebalance takes the write
	// side once between the cutover and the source delete. Without it, a
	// round routed against pre-cutover placement could take its secondary
	// (destination) read before the entry arrived there and its primary
	// (source) read after the delete — finding the label on neither side.
	moveGate sync.RWMutex

	jour *durable.Journal // nil until EnableDurability

	traces *obs.TraceStore
	met    routerMetrics
}

// NewRouter builds an in-memory router over a static shard list with a
// fresh routing table; EnableDurability recovers and journals it.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, errors.New("shard: router needs at least one shard")
	}
	r := &Router{
		srv:     wire.NewServer(),
		specs:   append([]ShardSpec(nil), opts.Shards...),
		pools:   make(map[string]*pool, len(opts.Shards)),
		logger:  opts.Logger,
		started: time.Now(),
	}
	if r.logger == nil {
		r.logger = obs.Nop()
	}
	ids := make([]string, 0, len(opts.Shards))
	for _, s := range opts.Shards {
		if s.ID == "" || s.Addr == "" {
			return nil, fmt.Errorf("shard: spec needs both ID and address")
		}
		if _, dup := r.pools[s.ID]; dup {
			return nil, fmt.Errorf("shard: duplicate shard ID %q", s.ID)
		}
		r.pools[s.ID] = newPool(s.ID, s.Addr, opts.Client)
		ids = append(ids, s.ID)
	}
	t, err := NewTable(ids, DefaultVnodes)
	if err != nil {
		return nil, err
	}
	if err := r.install(journalRec{Table: t}); err != nil {
		return nil, err
	}
	r.registerMetrics(opts.Registry)
	r.srv.SetLogger(opts.Logger)
	r.traces = obs.NewTraceStore(0)
	r.srv.SetTraceStore(r.traces)
	r.srv.HandleMeta(wire.MethodCloudInit, r.handleInit)
	r.srv.HandleMeta(wire.MethodCloudUpdate, r.handleUpdate)
	r.srv.HandleMeta(wire.MethodCloudSearch, r.handleSearch)
	r.srv.Handle(wire.MethodCloudStats, r.handleStats)
	r.srv.Handle(MethodRouterTable, r.handleTable)
	r.srv.Handle(MethodRouterShards, r.handleShards)
	r.srv.HandleTraced(MethodRouterRebalance, r.handleRebalance)
	return r, nil
}

// EnableDurability gives the router a data directory: it recovers the
// journaled routing table and trapdoor key (newest snapshot + WAL tail; a
// record is also a snapshot, so WAL-only directories recover too), journals
// the fresh table when the directory held none, and from then on journals
// every epoch and key before acknowledging it. Call before Listen.
func (r *Router) EnableDurability(opts durable.JournalOptions) (*durable.RecoveryStats, error) {
	fresh := r.currentTable()
	jour, stats, err := durable.OpenJournal(opts, r.replay, r.replay)
	if err != nil {
		return nil, err
	}
	r.jour = jour
	if t := r.currentTable(); t == fresh {
		if err := r.commit(journalRec{Table: t}); err != nil {
			return nil, err
		}
	} else {
		for _, id := range t.Shards() {
			if _, ok := r.pools[id]; !ok {
				return nil, fmt.Errorf("shard: recovered table references unknown shard %q", id)
			}
		}
	}
	return stats, nil
}

// replay installs one journaled record or snapshot: the newest table and
// trapdoor key win, exactly the state this router last acknowledged.
func (r *Router) replay(b []byte) error {
	var jr journalRec
	if err := json.Unmarshal(b, &jr); err != nil {
		return err
	}
	return r.install(jr)
}

// install applies a journal record to the live state.
func (r *Router) install(jr journalRec) error {
	if jr.Table != nil {
		if err := jr.Table.Validate(); err != nil {
			return err
		}
	}
	var tpk *trapdoor.PublicKey
	if len(jr.TrapdoorPub) > 0 {
		var err error
		if tpk, err = trapdoor.UnmarshalPublic(jr.TrapdoorPub); err != nil {
			return fmt.Errorf("shard: trapdoor key: %w", err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if jr.Table != nil {
		r.table = jr.Table
		r.met.epoch.Set(float64(jr.Table.Epoch))
	}
	if tpk != nil {
		r.tpk = tpk
	}
	return nil
}

// commit journals one record, then applies it; callers acknowledge only
// after it returns.
func (r *Router) commit(jr journalRec) error {
	b, err := json.Marshal(&jr)
	if err != nil {
		return err
	}
	return r.jour.Commit(b, func() error { return r.install(jr) }, r.snapshotState)
}

// snapshotState is the router's snapshot payload: its current table and
// trapdoor key as one journal record.
func (r *Router) snapshotState() ([]byte, error) {
	r.mu.RLock()
	jr := journalRec{Table: r.table}
	if r.tpk != nil {
		jr.TrapdoorPub = r.tpk.MarshalPublic()
	}
	r.mu.RUnlock()
	return json.Marshal(&jr)
}

func (r *Router) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.srv.SetMetrics(reg, "router")
	r.met.searches = reg.Counter("slicer_shard_searches_total",
		"Scatter-gather searches served by the router.")
	r.met.fanout = reg.HistogramBuckets("slicer_shard_scatter_fanout",
		"Distinct shards contacted per search token.",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32})
	r.met.mgets = reg.CounterVecOpts("slicer_shard_mget_total",
		"Batched label fetches issued, by shard.",
		[]string{"shard"}, obs.VecOpts{MaxCardinality: 128})
	r.met.doubleReads = reg.Counter("slicer_shard_double_reads_total",
		"Label fetches duplicated to both sides of a move window.")
	r.met.epoch = reg.Gauge("slicer_shard_table_epoch",
		"Current routing-table epoch.")
	r.met.rebalActive = reg.Gauge("slicer_shard_rebalance_active",
		"1 while a range move is in flight.")
	r.met.rebalMoved = reg.Counter("slicer_shard_rebalance_entries_total",
		"Index entries shipped by range moves since start.")
	r.met.rebalGauge = reg.Gauge("slicer_shard_rebalance_progress",
		"Fraction of the current range move's entries shipped (0 when idle).")
	r.met.rebalances = reg.CounterVecOpts("slicer_shard_rebalances_total",
		"Range moves finished, by outcome.",
		[]string{"outcome"}, obs.VecOpts{MaxCardinality: 4})
	r.met.epoch.Set(float64(r.currentTable().Epoch))
}

// Server exposes the underlying RPC server (logger, idle timeout, traces).
func (r *Router) Server() *wire.Server { return r.srv }

// Traces exposes the router's propagated-trace store for admin endpoints.
func (r *Router) Traces() *obs.TraceStore { return r.traces }

// Listen binds the router and returns its address.
func (r *Router) Listen(addr string) (string, error) { return r.srv.Listen(addr) }

// Close shuts the router down: the RPC server, every shard connection, and
// the journal.
func (r *Router) Close() error {
	err := r.srv.Close()
	for _, p := range r.pools {
		p.close()
	}
	if jerr := r.jour.Close(); err == nil {
		err = jerr
	}
	return err
}

// Table returns a copy of the current routing table.
func (r *Router) Table() *Table { return r.currentTable().Clone() }

func (r *Router) currentTable() *Table {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.table
}

// view snapshots the placement state one scatter batch routes against.
func (r *Router) view() (*Table, *moveWindow) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.table, r.window
}

func (r *Router) pool(id string) (*pool, error) {
	p, ok := r.pools[id]
	if !ok {
		return nil, fmt.Errorf("shard: no shard %q", id)
	}
	return p, nil
}

// sortedIDs returns every configured shard ID, sorted — the deterministic
// iteration order for fan-outs and error selection.
func (r *Router) sortedIDs() []string {
	ids := make([]string, 0, len(r.pools))
	for id := range r.pools {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// splitIndex partitions an index by the table's address placement. Every
// configured shard gets a partition (possibly empty) so the replicated ADS
// reaches shards that own no entries yet.
func (r *Router) splitIndex(t *Table, ix *store.Index) map[string]*store.Index {
	parts := make(map[string]*store.Index, len(r.pools))
	for id := range r.pools {
		parts[id] = store.NewIndex()
	}
	ix.Range(func(l store.Label, d store.Payload) bool {
		_ = parts[t.Owner(l)].Put(l, d) // Put only fails on duplicate labels; Range yields each label once
		return true
	})
	return parts
}

// broadcast runs fn against every configured shard concurrently and returns
// the error of the lowest shard ID that failed — deterministic regardless of
// scheduling, mirroring core's first-error semantics.
func (r *Router) broadcast(fn func(id string, p *pool) error) error {
	ids := r.sortedIDs()
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			errs[i] = fn(id, r.pools[id])
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// handleInit splits the owner's full index by address and initializes every
// shard with its partition plus the full replicated ADS. The router itself
// keeps only the trapdoor public key (journaled, so a restart can still walk
// token chains).
func (r *Router) handleInit(params json.RawMessage, tr *obs.Trace, _ wire.Meta) (any, error) {
	var msg wire.CloudInitMsg
	if err := json.Unmarshal(params, &msg); err != nil {
		return nil, err
	}
	if _, err := trapdoor.UnmarshalPublic(msg.TrapdoorPub); err != nil {
		return nil, fmt.Errorf("wire: trapdoor key: %w", err)
	}
	ix, err := store.UnmarshalIndex(msg.Index)
	if err != nil {
		return nil, fmt.Errorf("wire: index: %w", err)
	}
	table := r.currentTable()
	parts := r.splitIndex(table, ix)
	err = r.broadcast(func(id string, p *pool) error {
		per := msg // copy; per-shard index partition, shared ADS fields
		per.Index = parts[id].Marshal()
		return p.call(func(cc *wire.CloudClient) error {
			return cc.Client().CallTraced(wire.MethodCloudInit, &per, nil, tr, "scatter:"+id)
		})
	})
	if err != nil {
		return nil, err
	}
	// Journal before acknowledging: a restarted router must still hold the
	// key that lets it walk trapdoor chains for this deployment.
	if err := r.commit(journalRec{TrapdoorPub: msg.TrapdoorPub}); err != nil {
		return nil, err
	}
	r.logger.Info("initialized shards", "entries", ix.Len(), "shards", len(parts))
	return map[string]bool{"ok": true}, nil
}

// handleUpdate splits an owner delta by address; every shard receives the
// full new primes and accumulation value (the ADS replicates) plus its slice
// of the index delta. All shards journal-then-ack before the router acks.
func (r *Router) handleUpdate(params json.RawMessage, tr *obs.Trace, _ wire.Meta) (any, error) {
	r.updateMu.Lock()
	defer r.updateMu.Unlock()
	var msg wire.UpdateMsg
	if err := json.Unmarshal(params, &msg); err != nil {
		return nil, err
	}
	ix, err := store.UnmarshalIndex(msg.Index)
	if err != nil {
		return nil, fmt.Errorf("wire: index delta: %w", err)
	}
	table := r.currentTable()
	parts := r.splitIndex(table, ix)
	err = r.broadcast(func(id string, p *pool) error {
		per := msg
		per.Index = parts[id].Marshal()
		return p.call(func(cc *wire.CloudClient) error {
			return cc.Client().CallTraced(wire.MethodCloudUpdate, &per, nil, tr, "scatter:"+id)
		})
	})
	if err != nil {
		return nil, err
	}
	return map[string]bool{"ok": true}, nil
}

func (r *Router) trapdoorPub() (*trapdoor.PublicKey, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.tpk == nil {
		// Mirror the single-cloud server's wording: to clients the router IS
		// the cloud.
		return nil, errors.New("wire: cloud not initialized")
	}
	return r.tpk, nil
}

// handleSearch is the scatter-gather search path: per token, the router
// runs core's Algorithm 4 walk itself (it holds the token's PRF keys and the
// public trapdoor key — both already in the cloud trust domain) over
// batched label fetches from the owning shards, and delegates VO generation
// for the merged result set to one shard.
func (r *Router) handleSearch(params json.RawMessage, tr *obs.Trace, _ wire.Meta) (any, error) {
	tpk, err := r.trapdoorPub()
	if err != nil {
		return nil, err
	}
	var req core.SearchRequest
	if err := json.Unmarshal(params, &req); err != nil {
		return nil, err
	}
	r.met.searches.Inc()
	results := make([]core.TokenResult, len(req.Tokens))
	err = core.ForEachIndexed(len(req.Tokens), 0, func(i int) error {
		res, err := r.searchToken(tpk, req.Tokens[i], tr)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &core.SearchResponse{Results: results}, nil
}

func (r *Router) searchToken(tpk *trapdoor.PublicKey, tok core.SearchToken, tr *obs.Trace) (core.TokenResult, error) {
	endCollect := tr.Span("router.collect")
	touched := make(map[string]bool)
	er, err := core.Collect(tpk, tok, DefaultBatch, func(labels []store.Label, payloads []store.Payload, found []bool) error {
		return r.fetchLabels(labels, payloads, found, touched, tr)
	})
	if err != nil {
		return core.TokenResult{}, err
	}
	endCollect()
	r.met.fanout.Observe(float64(len(touched)))
	endWitness := tr.Span("router.witness")
	vo, err := r.delegateWitness(tok, er, tr)
	if err != nil {
		return core.TokenResult{}, err
	}
	endWitness()
	return core.TokenResult{Token: tok, ER: er, Witness: vo}, nil
}

// shardBatch is the slice of one fetch round addressed to one shard.
type shardBatch struct {
	labels [][]byte
	idxs   []int
}

func addTo(m map[string]*shardBatch, id string, k int, l store.Label) {
	b := m[id]
	if b == nil {
		b = &shardBatch{}
		m[id] = b
	}
	b.labels = append(b.labels, append([]byte(nil), l[:]...))
	b.idxs = append(b.idxs, k)
}

// fetchLabels is the router's lookup for core.Collect: it resolves one
// batch of labels across the owning shards into payloads and found,
// double-reading any label inside an active move window, and adds every
// shard it contacted to touched. A label found on both sides of a move
// window resolves to the primary owner's copy (payloads are immutable, so
// either copy is the same bytes — the preference only pins determinism). A
// found payload that is not store.EntrySize bytes fails the fetch.
func (r *Router) fetchLabels(labels []store.Label, payloads []store.Payload, found []bool, touched map[string]bool, tr *obs.Trace) error {
	r.moveGate.RLock()
	defer r.moveGate.RUnlock()
	table, window := r.view()
	prim := make(map[string]*shardBatch)
	sec := make(map[string]*shardBatch)
	for k, l := range labels {
		addr := store.Addr(l)
		owner := table.Lookup(addr)
		addTo(prim, owner, k, l)
		if window != nil && window.contains(addr) {
			other := window.src
			if owner == window.src {
				other = window.dst
			}
			if other != owner {
				addTo(sec, other, k, l)
				r.met.doubleReads.Inc()
			}
		}
	}
	// One RPC per (shard, role); both roles to the same shard are distinct
	// batches but can share the fan-out round.
	type job struct {
		id      string
		batch   *shardBatch
		primary bool
	}
	var jobs []job
	for _, id := range sortedKeys(prim) {
		jobs = append(jobs, job{id: id, batch: prim[id], primary: true})
	}
	for _, id := range sortedKeys(sec) {
		jobs = append(jobs, job{id: id, batch: sec[id], primary: false})
	}
	replies := make([]*wire.MGetReply, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for j := range jobs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			jb := jobs[j]
			p, err := r.pool(jb.id)
			if err != nil {
				errs[j] = err
				return
			}
			r.met.mgets.WithLabelValues(jb.id).Inc()
			errs[j] = p.call(func(cc *wire.CloudClient) error {
				var reply wire.MGetReply
				if err := cc.Client().CallTraced(wire.MethodCloudMGet,
					&wire.MGetMsg{Labels: jb.batch.labels}, &reply, tr, "scatter:"+jb.id); err != nil {
					return err
				}
				if len(reply.Found) != len(jb.batch.labels) || len(reply.Payloads) != len(jb.batch.labels) {
					return fmt.Errorf("shard: mget reply misaligned from %s", jb.id)
				}
				replies[j] = &reply
				return nil
			})
		}(j)
	}
	wg.Wait()
	for j := range jobs {
		touched[jobs[j].id] = true
		if errs[j] != nil {
			return errs[j]
		}
	}
	for k := range found {
		found[k] = false
	}
	// Secondary (move-window) replies first, primary second: the primary
	// owner's copy wins when both sides hold the label.
	for pass := 0; pass < 2; pass++ {
		primary := pass == 1
		for j, jb := range jobs {
			if jb.primary != primary {
				continue
			}
			for bi, k := range jb.batch.idxs {
				if !replies[j].Found[bi] {
					continue
				}
				d, err := store.PayloadFromBytes(replies[j].Payloads[bi])
				if err != nil {
					return fmt.Errorf("shard: mget reply from %s: %w", jb.id, err)
				}
				found[k] = true
				payloads[k] = d
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]*shardBatch) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// delegateWitness derives the merged result set's prime representative and
// has one deterministically-chosen shard produce the membership witness.
// Every shard holds the full replicated ADS, so any choice yields the same
// bytes; hashing the prime spreads the modexp load.
func (r *Router) delegateWitness(tok core.SearchToken, er [][]byte, tr *obs.Trace) ([]byte, error) {
	x := core.TokenPrime(tok, mhash.OfMultiset(er))
	ids := r.sortedIDs()
	pick := ids[new(big.Int).Mod(x, big.NewInt(int64(len(ids)))).Int64()]
	var vo []byte
	err := r.pools[pick].call(func(cc *wire.CloudClient) error {
		var reply wire.WitnessReply
		if err := cc.Client().CallTraced(wire.MethodCloudWitness,
			&wire.WitnessMsg{X: x.Bytes()}, &reply, tr, "scatter:"+pick); err != nil {
			return err
		}
		vo = reply.VO
		return nil
	})
	return vo, err
}

// handleStats aggregates the fleet into one CloudStats, so clients (and
// slicer-cli status) written against a single cloud keep working: entry and
// byte counts sum across shards, while the replicated ADS reports the
// maximum (each shard holds a full copy).
func (r *Router) handleStats(json.RawMessage) (any, error) {
	per, err := r.ShardStats()
	if err != nil {
		return nil, err
	}
	agg := &wire.CloudStats{UptimeSeconds: time.Since(r.started).Seconds()}
	var reached bool
	for _, st := range per {
		if st.Err != "" || st.Stats == nil {
			continue
		}
		reached = true
		agg.IndexEntries += st.Stats.IndexEntries
		agg.IndexBytes += st.Stats.IndexBytes
		agg.SearchCalls += st.Stats.SearchCalls
		if st.Stats.Primes > agg.Primes {
			agg.Primes = st.Stats.Primes
		}
		if st.Stats.ADSBytes > agg.ADSBytes {
			agg.ADSBytes = st.Stats.ADSBytes
		}
	}
	if !reached {
		return nil, errors.New("shard: no shard reachable")
	}
	return agg, nil
}

// ShardStatus is one shard's view in router.shards: its stats, or the error
// that kept the router from fetching them.
type ShardStatus struct {
	ID    string           `json:"id"`
	Addr  string           `json:"addr"`
	Stats *wire.CloudStats `json:"stats,omitempty"`
	Err   string           `json:"err,omitempty"`
}

// ShardStats fetches every shard's stats concurrently. Unreachable shards
// report their error instead of failing the whole listing.
func (r *Router) ShardStats() ([]ShardStatus, error) {
	ids := r.sortedIDs()
	out := make([]ShardStatus, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		out[i] = ShardStatus{ID: id}
		for _, sp := range r.specs {
			if sp.ID == id {
				out[i].Addr = sp.Addr
			}
		}
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			err := r.pools[id].call(func(cc *wire.CloudClient) error {
				st, err := cc.Stats()
				if err != nil {
					return err
				}
				out[i].Stats = st
				return nil
			})
			if err != nil {
				out[i].Err = err.Error()
			}
		}(i, id)
	}
	wg.Wait()
	return out, nil
}

// TableInfo is the router.table reply: the live table.
type TableInfo struct {
	Table *Table `json:"table"`
}

func (r *Router) handleTable(json.RawMessage) (any, error) {
	return &TableInfo{Table: r.Table()}, nil
}

func (r *Router) handleShards(json.RawMessage) (any, error) {
	return r.ShardStats()
}
