// Package obs is the stdlib-only observability layer shared by every
// Slicer process: a concurrent-safe metrics registry (counters, gauges,
// histograms with fixed latency buckets) exporting both Prometheus
// text-exposition format and JSON, structured logging helpers on log/slog,
// lightweight span tracing for one search request end-to-end, and an
// opt-in admin HTTP server (/metrics, /healthz, /debug/vars, pprof).
//
// Everything is nil-safe: methods on a nil *Registry return nil
// instruments, and every instrument method on a nil receiver is a no-op
// that does not even read the clock, so instrumented hot paths are
// zero-cost when observability is disabled.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets are the fixed histogram bucket upper bounds, in
// seconds. They span 25µs (a cached-witness lookup) to 10s (a full-scale
// RootFactor rebuild), roughly logarithmically.
var DefLatencyBuckets = []float64{
	25e-6, 100e-6, 250e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3,
	50e-3, 100e-3, 250e-3, 500e-3, 1, 2.5, 5, 10,
}

// DefSizeBuckets are histogram bucket upper bounds for payload sizes, in
// bytes: powers of four from 64B to the 64MiB wire message cap.
var DefSizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536,
	262144, 1 << 20, 4 << 20, 16 << 20, 64 << 20,
}

// atomicFloat is an atomic float64 (bit-cast into a uint64).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing uint64 metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ v atomicFloat }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (which may be negative). No-op on a nil gauge.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc / Dec adjust by one. No-ops on a nil gauge.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the gauge (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets and tracks their sum.
// Observations are in seconds when the histogram records latencies (the
// default buckets), but any unit works with custom buckets.
type Histogram struct {
	bounds []float64 // sorted upper bounds; implicit +Inf bucket at the end
	counts []atomic.Uint64
	total  atomic.Uint64
	sum    atomicFloat

	// exemplars holds the most recent traced observation per bucket
	// (index-aligned with counts); win, when set, mirrors observations
	// into a sliding-window ring for live quantiles.
	exemplars []atomic.Pointer[Exemplar]
	win       atomic.Pointer[windowRing]
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Uint64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	if w := h.win.Load(); w != nil {
		w.observe(v)
	}
}

// Start reads the clock for a later ObserveSince. On a nil histogram it
// returns the zero time without touching the clock.
func (h *Histogram) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the seconds elapsed since start. No-op on a nil
// histogram.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// ObserveDuration records d in seconds. No-op on a nil histogram.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Count reports the number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum reports the sum of observed values (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns the bucket upper bounds and their cumulative counts
// (Prometheus "le" semantics); the final pair is +Inf / Count().
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = append(bounds, h.bounds...)
	bounds = append(bounds, math.Inf(1))
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is one registered instrument under its full (labeled) name.
type metric struct {
	name   string // full name, possibly with {labels}
	family string // name up to the label block
	labels string // inside the braces, "" when unlabeled
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// Registry is a concurrent-safe collection of named metrics. The zero
// value is not usable; use NewRegistry. A nil *Registry is valid
// everywhere and yields nil (no-op) instruments.
type Registry struct {
	mu       sync.Mutex
	metrics  map[string]*metric
	help     map[string]string // by family
	vecs     map[string]*vec   // labeled vectors by family
	windowed map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics:  make(map[string]*metric),
		help:     make(map[string]string),
		vecs:     make(map[string]*vec),
		windowed: make(map[string]*Histogram),
	}
}

// splitName separates `family{labels}` into its parts.
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// Label renders a metric name with label pairs: Label("x_total", "op",
// "eq") == `x_total{op="eq"}`. Pairs render in the given order.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// register looks up or creates the metric under name, enforcing kind
// consistency within a family.
func (r *Registry) register(name, help string, kind metricKind, create func() *metric) *metric {
	family, labels := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind && !(m.kind == kindGauge && kind == kindGaugeFunc || m.kind == kindGaugeFunc && kind == kindGauge) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := create()
	m.name, m.family, m.labels, m.kind = name, family, labels, kind
	r.metrics[name] = m
	if help != "" {
		r.help[family] = help
	}
	return m
}

// Counter returns the counter registered under name (with optional
// {labels}), creating it on first use. Nil-safe: a nil registry returns a
// nil counter whose methods are no-ops.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, func() *metric {
		return &metric{counter: &Counter{}}
	}).counter
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, func() *metric {
		return &metric{gauge: &Gauge{}}
	}).gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time
// (uptime, goroutine counts, ...). Re-registering the same name keeps the
// first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, kindGaugeFunc, func() *metric {
		return &metric{fn: fn}
	})
}

// Histogram returns the histogram registered under name, creating it with
// the fixed latency buckets on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.HistogramBuckets(name, help, DefLatencyBuckets)
}

// HistogramBuckets is Histogram with explicit bucket upper bounds.
func (r *Registry) HistogramBuckets(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, func() *metric {
		return &metric{hist: newHistogram(buckets)}
	}).hist
}

// sortedMetrics snapshots the registered metrics ordered by family then
// full name, for deterministic export.
func (r *Registry) sortedMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].name < out[j].name
	})
	return out
}

func (r *Registry) helpFor(family string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.help[family]
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// joinLabels merges a metric's own labels with an extra pair (used for the
// histogram "le" label).
func joinLabels(labels, extra string) string {
	switch {
	case labels == "":
		return "{" + extra + "}"
	default:
		return "{" + labels + "," + extra + "}"
	}
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered. Safe to call
// concurrently with metric updates. No-op on a nil registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	lastFamily := ""
	for _, m := range r.sortedMetrics() {
		if m.family != lastFamily {
			if help := r.helpFor(m.family); help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.family, help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.family, m.kind)
			lastFamily = m.family
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", m.family, braced(m.labels), m.counter.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", m.family, braced(m.labels), formatFloat(m.gauge.Value()))
		case kindGaugeFunc:
			fmt.Fprintf(&b, "%s%s %s\n", m.family, braced(m.labels), formatFloat(m.fn()))
		case kindHistogram:
			bounds, cum := m.hist.Buckets()
			for i, le := range bounds {
				fmt.Fprintf(&b, "%s_bucket%s %d", m.family, joinLabels(m.labels, `le="`+formatFloat(le)+`"`), cum[i])
				// OpenMetrics exemplar syntax: link the bucket to the most
				// recent traced observation that landed in it.
				if e := m.hist.bucketExemplar(i); e != nil {
					fmt.Fprintf(&b, " # {trace_id=%q} %s", e.TraceID, formatFloat(e.Value))
				}
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", m.family, braced(m.labels), formatFloat(m.hist.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", m.family, braced(m.labels), m.hist.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders every metric as one JSON object keyed by full metric
// name; histograms expand into {count, sum, buckets}. Deterministically
// ordered. No-op on a nil registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	var b strings.Builder
	b.WriteString("{")
	for i, m := range r.sortedMetrics() {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n  %q: ", m.name)
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%d", m.counter.Value())
		case kindGauge:
			b.WriteString(formatFloat(m.gauge.Value()))
		case kindGaugeFunc:
			b.WriteString(formatFloat(m.fn()))
		case kindHistogram:
			bounds, cum := m.hist.Buckets()
			b.WriteString("{\"count\": ")
			fmt.Fprintf(&b, "%d", m.hist.Count())
			fmt.Fprintf(&b, ", \"sum\": %s, \"buckets\": {", formatFloat(m.hist.Sum()))
			for j, le := range bounds {
				if j > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%q: %d", formatFloat(le), cum[j])
			}
			b.WriteString("}}")
		}
	}
	b.WriteString("\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot flattens the registry into name -> value: counters and gauges
// map directly, histograms contribute "<name>/count" and "<name>/sum".
// Used by the bench harness to diff per-experiment registry deltas.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	r.flatten(func(key string, v float64, _ bool) { out[key] = v })
	return out
}

// Delta attributes registry movement since before (a Snapshot) to one
// experiment: counters and histogram counts and sums report after minus
// before, gauges their current value — a gauge that fell is a level, not a
// negative delta. Keys whose value is zero are left out; keys absent from
// before count from zero.
func (r *Registry) Delta(before map[string]float64) map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	r.flatten(func(key string, v float64, gauge bool) {
		if !gauge {
			v -= before[key]
		}
		if v != 0 {
			out[key] = v
		}
	})
	return out
}

// flatten visits every flattened series of the registry with its value and
// whether it is a gauge.
func (r *Registry) flatten(visit func(key string, v float64, gauge bool)) {
	for _, m := range r.sortedMetrics() {
		switch m.kind {
		case kindCounter:
			visit(m.name, float64(m.counter.Value()), false)
		case kindGauge:
			visit(m.name, m.gauge.Value(), true)
		case kindGaugeFunc:
			visit(m.name, m.fn(), true)
		case kindHistogram:
			visit(m.name+"/count", float64(m.hist.Count()), false)
			visit(m.name+"/sum", m.hist.Sum(), false)
		}
	}
}
