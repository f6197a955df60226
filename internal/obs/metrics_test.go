package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden pins the exact Prometheus text format for a small
// registry: HELP/TYPE lines once per family, deterministic ordering,
// labeled series, cumulative histogram buckets with sum/count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "Things counted.").Add(3)
	r.Counter(`b_total{op="eq"}`, "Labeled things.").Add(1)
	r.Counter(`b_total{op="lt"}`, "").Add(2)
	r.Gauge("c_current", "A level.").Set(2.5)
	h := r.HistogramBuckets("d_seconds", "A latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	// A windowed histogram with a pinned clock: the cumulative series keeps
	// its exact shape and four quantile gauges appear under e_seconds_window.
	// With buckets {0.1, 1} and observations {0.05, 0.05, 0.5, 5}: p50
	// interpolates to the first bound (target 2 = the bucket's count) and
	// the higher quantiles land in +Inf, reporting the last finite bound.
	now := time.Unix(1700000000, 0)
	e := r.WindowedHistogramOpts("e_seconds", "A windowed latency.", []float64{0.1, 1},
		WindowOptions{Clock: func() time.Time { return now }})
	e.ObserveExemplar(0.05, "4bf92f3577b34da6a3ce929d0e0e4736")
	e.Observe(0.05)
	e.Observe(0.5)
	e.Observe(5)

	// Vector children render their labels in sorted key order regardless of
	// declaration order.
	fv := r.CounterVec("f_total", "Vector things.", []string{"op", "kind"})
	fv.WithLabelValues("eq", "warm").Add(4)
	fv.WithLabelValues("lt", "cold").Add(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP a_total Things counted.
# TYPE a_total counter
a_total 3
# HELP b_total Labeled things.
# TYPE b_total counter
b_total{op="eq"} 1
b_total{op="lt"} 2
# HELP c_current A level.
# TYPE c_current gauge
c_current 2.5
# HELP d_seconds A latency.
# TYPE d_seconds histogram
d_seconds_bucket{le="0.1"} 2
d_seconds_bucket{le="1"} 3
d_seconds_bucket{le="+Inf"} 4
d_seconds_sum 5.6
d_seconds_count 4
# HELP e_seconds A windowed latency.
# TYPE e_seconds histogram
e_seconds_bucket{le="0.1"} 2 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.05
e_seconds_bucket{le="1"} 3
e_seconds_bucket{le="+Inf"} 4
e_seconds_sum 5.6
e_seconds_count 4
# HELP e_seconds_window Sliding-window quantile estimate of e_seconds (bucket-interpolated).
# TYPE e_seconds_window gauge
e_seconds_window{quantile="p50"} 0.1
e_seconds_window{quantile="p90"} 1
e_seconds_window{quantile="p99"} 1
e_seconds_window{quantile="p999"} 1
# HELP f_total Vector things.
# TYPE f_total counter
f_total{kind="cold",op="lt"} 5
f_total{kind="warm",op="eq"} 4
# HELP slicer_obs_label_overflow_total Label-set lookups redirected to the sentinel other child because a vector hit its cardinality cap.
# TYPE slicer_obs_label_overflow_total counter
slicer_obs_label_overflow_total{family="f_total"} 0
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestExpositionJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(7)
	r.HistogramBuckets("d_seconds", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if parsed["a_total"].(float64) != 7 {
		t.Errorf("a_total = %v, want 7", parsed["a_total"])
	}
	hist := parsed["d_seconds"].(map[string]any)
	if hist["count"].(float64) != 1 || hist["sum"].(float64) != 0.5 {
		t.Errorf("histogram JSON = %v", hist)
	}
}

// TestHistogramBucketBoundaries checks le semantics: a value equal to a
// bucket's upper bound lands in that bucket, values beyond every bound
// land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.1, 1, 10, 10.0001, 0.0999} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	wantBounds := []float64{0.1, 1, 10, math.Inf(1)}
	wantCum := []uint64{2, 3, 4, 5} // 0.0999+0.1 <= 0.1; +1 <= 1; +10 <= 10; +Inf gets all
	for i := range wantBounds {
		if bounds[i] != wantBounds[i] {
			t.Errorf("bounds[%d] = %v, want %v", i, bounds[i], wantBounds[i])
		}
		if cum[i] != wantCum[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], wantCum[i])
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
}

func TestDefaultBucketsSorted(t *testing.T) {
	for i := 1; i < len(DefLatencyBuckets); i++ {
		if DefLatencyBuckets[i] <= DefLatencyBuckets[i-1] {
			t.Fatalf("DefLatencyBuckets not strictly increasing at %d: %v", i, DefLatencyBuckets)
		}
	}
}

// TestNilSafety drives every instrument and export path through nil
// receivers — the zero-cost-when-disabled contract.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "")
	r.GaugeFunc("f", "", func() float64 { return 1 })
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Dec()
	h.Observe(1)
	h.ObserveSince(h.Start())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments accumulated values")
	}
	if !h.Start().IsZero() {
		t.Error("nil histogram Start read the clock")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	if r.Snapshot() != nil {
		t.Error("nil Snapshot not nil")
	}

	var tr *Trace
	tr.Span("p")()
	StartPhase(nil, nil, "p")()
	if tr.Spans() != nil || tr.Elapsed() != 0 {
		t.Error("nil trace recorded spans")
	}
	if err := tr.WriteText(&bytes.Buffer{}); err != nil {
		t.Errorf("nil trace WriteText: %v", err)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "")
	h := r.Histogram("b_seconds", "")
	c.Add(2)
	h.Observe(0.25)
	before := r.Snapshot()
	c.Add(3)
	h.Observe(0.75)
	d := r.Delta(before)
	if d["a_total"] != 3 {
		t.Errorf("delta a_total = %v, want 3", d["a_total"])
	}
	if d["b_seconds/count"] != 1 || math.Abs(d["b_seconds/sum"]-0.75) > 1e-12 {
		t.Errorf("histogram delta = %v", d)
	}
	if len(r.Delta(r.Snapshot())) != 0 {
		t.Error("idempotent snapshot produced a non-empty delta")
	}
}

// TestDeltaReportsGaugeLevels diffs counters but reports gauges at their
// current value: a gauge set to 5 and then 3 reads 3, not -2.
func TestDeltaReportsGaugeLevels(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("level", "")
	level := 5.0
	r.GaugeFunc("level_fn", "", func() float64 { return level })
	c := r.Counter("c_total", "")
	g.Set(5)
	c.Add(4)
	before := r.Snapshot()
	g.Set(3)
	level = 3
	c.Add(1)
	d := r.Delta(before)
	if d["level"] != 3 || d["level_fn"] != 3 {
		t.Errorf("gauge deltas = %v / %v, want their after-value 3", d["level"], d["level_fn"])
	}
	if d["c_total"] != 1 {
		t.Errorf("counter delta = %v, want 1", d["c_total"])
	}
}

// TestDeltaWindowQuantileNeverNegative lets a windowed histogram's live
// quantile fall between snapshots: its gauge reports the new level, never
// a negative difference.
func TestDeltaWindowQuantileNeverNegative(t *testing.T) {
	now := time.Unix(1000, 0)
	r := NewRegistry()
	h := r.WindowedHistogramOpts("lat_seconds", "", DefLatencyBuckets,
		WindowOptions{SubWindows: 2, Width: time.Second, Clock: func() time.Time { return now }})
	for i := 0; i < 10; i++ {
		h.Observe(2)
	}
	before := r.Snapshot()
	now = now.Add(10 * time.Second) // the slow observations age out
	h.Observe(0.001)
	d := r.Delta(before)
	p50 := `lat_seconds_window{quantile="p50"}`
	if before[p50] <= d[p50] {
		t.Fatalf("window p50 did not fall (before %v, now %v); the test needs it to", before[p50], d[p50])
	}
	for k, v := range d {
		if strings.Contains(k, "_window{") && v < 0 {
			t.Errorf("%s delta = %v, a quantile level cannot be negative", k, v)
		}
	}
	if d[p50] != r.Snapshot()[p50] {
		t.Errorf("window p50 delta = %v, want its current value %v", d[p50], r.Snapshot()[p50])
	}
	if d["lat_seconds/count"] != 1 {
		t.Errorf("histogram count delta = %v, want 1", d["lat_seconds/count"])
	}
}

func TestRegisterKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a histogram did not panic")
		}
	}()
	r.Histogram("m", "")
}

// TestConcurrentUpdatesAndScrapes is the -race stress test: many writers
// hammer one counter, one labeled counter family, a gauge and a histogram
// while scrapers render both export formats.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 8, 2000
	var writeWG, scrapeWG sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 2; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sink bytes.Buffer
				_ = r.WritePrometheus(&sink)
				_ = r.WriteJSON(&sink)
				r.Snapshot()
			}
		}()
	}
	for wkr := 0; wkr < writers; wkr++ {
		writeWG.Add(1)
		go func(wkr int) {
			defer writeWG.Done()
			c := r.Counter("stress_total", "")
			lc := r.Counter(Label("stress_by_worker_total", "w", fmt.Sprint(wkr%4)), "")
			g := r.Gauge("stress_level", "")
			h := r.Histogram("stress_seconds", "")
			for i := 0; i < perWriter; i++ {
				c.Inc()
				lc.Inc()
				g.Add(1)
				h.Observe(float64(i%7) / 100)
			}
		}(wkr)
	}
	writeWG.Wait()
	close(stop)
	scrapeWG.Wait()

	if got := r.Counter("stress_total", "").Value(); got != writers*perWriter {
		t.Errorf("stress_total = %d, want %d", got, writers*perWriter)
	}
	if got := r.Histogram("stress_seconds", "").Count(); got != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", got, writers*perWriter)
	}
	var total uint64
	for w := 0; w < 4; w++ {
		total += r.Counter(Label("stress_by_worker_total", "w", fmt.Sprint(w)), "").Value()
	}
	if total != writers*perWriter {
		t.Errorf("labeled family total = %d, want %d", total, writers*perWriter)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("final scrape: %v", err)
	}
	if !strings.Contains(buf.String(), "stress_seconds_count") {
		t.Error("final scrape missing histogram count")
	}
}
