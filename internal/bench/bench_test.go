package bench

import (
	"bytes"
	"strings"
	"testing"

	"slicer/internal/obs"
)

// tinyScale keeps the full experiment matrix runnable inside the unit test
// suite.
var tinyScale = Scale{
	Name:            "tiny",
	Counts:          []int{50, 100},
	Bits:            []int{8},
	OrderBits:       []int{8},
	InsertPreload:   100,
	InsertCounts:    []int{10, 20},
	Queries:         2,
	TrapdoorBits:    256,
	AccumulatorBits: 256,
}

// tinyScale16 covers the 16-bit paths the traversal ablation needs.
var tinyScale16 = Scale{
	Name:            "tiny16",
	Counts:          []int{50},
	Bits:            []int{16},
	OrderBits:       []int{16},
	InsertPreload:   50,
	InsertCounts:    []int{10},
	Queries:         1,
	TrapdoorBits:    256,
	AccumulatorBits: 256,
}

func TestAllExperimentsRun(t *testing.T) {
	runner := NewRunner(tinyScale)
	runner16 := NewRunner(tinyScale16)
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := runner
			if e.ID == "ablation-traversal" || e.ID == "ablation-ore" {
				r = runner16
			}
			table, err := e.Run(r)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if table.ID != e.ID {
				t.Errorf("table ID %q, want %q", table.ID, e.ID)
			}
			if len(table.Rows) == 0 {
				t.Errorf("%s produced no rows", e.ID)
			}
			for i, row := range table.Rows {
				if len(row) != len(table.Headers) {
					t.Errorf("%s row %d has %d cells for %d headers", e.ID, i, len(row), len(table.Headers))
				}
				for _, cell := range row {
					if cell == "" {
						t.Errorf("%s row %d has an empty cell", e.ID, i)
					}
				}
			}
			var buf bytes.Buffer
			table.Fprint(&buf)
			if !strings.Contains(buf.String(), e.ID) {
				t.Errorf("%s rendering lacks its ID", e.ID)
			}
		})
	}
}

func TestScaleByName(t *testing.T) {
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("unknown scale accepted")
	}
	q, err := ScaleByName("")
	if err != nil || q.Name != "quick" {
		t.Errorf("default scale = %q, %v", q.Name, err)
	}
	f, err := ScaleByName("full")
	if err != nil || f.Name != "full" {
		t.Errorf("full scale = %q, %v", f.Name, err)
	}
}

func TestFind(t *testing.T) {
	if _, err := Find("fig3a"); err != nil {
		t.Errorf("Find(fig3a): %v", err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("unknown experiment found")
	}
}

func TestTableRendering(t *testing.T) {
	table := &Table{
		ID:      "t",
		Title:   "title",
		Headers: []string{"a", "bbbb"},
	}
	table.AddRow("1", "2")
	table.AddRow("333", "4,quoted")
	table.AddNote("note %d", 7)

	var buf bytes.Buffer
	table.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"t — title", "a", "bbbb", "333", "note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("text rendering lacks %q:\n%s", want, out)
		}
	}

	buf.Reset()
	table.FprintCSV(&buf)
	out = buf.String()
	for _, want := range []string{"a,bbbb", "1,2", `333,"4,quoted"`, "# note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("csv rendering lacks %q:\n%s", want, out)
		}
	}

	buf.Reset()
	table.FprintMarkdown(&buf)
	out = buf.String()
	for _, want := range []string{"### t — title", "| a | bbbb |", "| --- | --- |", "| 333 | 4,quoted |", "*note: note 7*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown rendering lacks %q:\n%s", want, out)
		}
	}
}

// TestAblationShardsReportsShardMetrics runs ablation-shards with a registry
// attached, as slicer-bench -obs does: both passes share the router series,
// and the experiment's delta must show the router's batched label fetches.
func TestAblationShardsReportsShardMetrics(t *testing.T) {
	r := NewRunner(tinyScale)
	r.Registry = obs.NewRegistry()
	before := r.Registry.Snapshot()
	if _, err := r.AblationShards(); err != nil {
		t.Fatal(err)
	}
	var mgets float64
	for k, v := range r.Registry.Delta(before) {
		if strings.HasPrefix(k, "slicer_shard_mget_total") {
			mgets += v
		}
	}
	if mgets <= 0 {
		t.Fatalf("slicer_shard_mget_total delta = %v, want > 0", mgets)
	}
}
