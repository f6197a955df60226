package main

import (
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"slicer/internal/obs"
)

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// node is one span of a traced round placed in its containment tree.
type node struct {
	obs.SpanRecord
	parent int // index into the round's node list, -1 for the root
}

func (n node) end() time.Duration { return n.Offset + n.Duration }

func (n node) key() string {
	if n.Party == "" {
		return n.Phase
	}
	return n.Party + "/" + n.Phase
}

// spanTree places a traced round's spans under a root covering the whole
// round. A span's parent is the smallest earlier-listed span containing it;
// the derived "wire:" spans are left out, since their position is nominal
// (a client span's self time is its wire time).
func spanTree(tr *obs.Trace, total time.Duration) []node {
	nodes := []node{{SpanRecord: obs.SpanRecord{Phase: "round", Duration: total}, parent: -1}}
	for _, s := range tr.Spans() {
		if strings.HasPrefix(s.Phase, "wire:") {
			continue
		}
		nodes = append(nodes, node{SpanRecord: s})
	}
	sort.SliceStable(nodes[1:], func(i, j int) bool {
		a, b := nodes[1+i], nodes[1+j]
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return a.Duration > b.Duration
	})
	for i := 1; i < len(nodes); i++ {
		best := 0
		for j := 1; j < i; j++ {
			if nodes[j].Offset <= nodes[i].Offset && nodes[j].end() >= nodes[i].end() &&
				nodes[j].Duration <= nodes[best].Duration {
				best = j
			}
		}
		nodes[i].parent = best
	}
	return nodes
}

// selfTimes reports each span's duration minus the part of it its children
// cover, summed per span key.
func selfTimes(nodes []node) map[string]time.Duration {
	children := make([][]int, len(nodes))
	for i := 1; i < len(nodes); i++ {
		children[nodes[i].parent] = append(children[nodes[i].parent], i)
	}
	out := make(map[string]time.Duration)
	for i, n := range nodes {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(nodes[c].Offset, n.Offset), min(nodes[c].end(), n.end())
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB time.Duration
		for k, v := range ivs {
			switch {
			case k == 0:
				curA, curB = v.a, v.b
			case v.a > curB:
				covered += curB - curA
				curA, curB = v.a, v.b
			case v.b > curB:
				curB = v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		out[n.key()] += n.Duration - covered
	}
	return out
}

// spanSum totals the durations of a round's spans whose phase is one of
// phases (any party).
func spanSum(tr *obs.Trace, phases ...string) time.Duration {
	var d time.Duration
	for _, s := range tr.Spans() {
		if slices.Contains(phases, s.Phase) {
			d += s.Duration
		}
	}
	return d
}

// spanSumParty totals the durations of a round's spans named phase that
// party recorded.
func spanSumParty(tr *obs.Trace, phase, party string) time.Duration {
	var d time.Duration
	for _, s := range tr.Spans() {
		if s.Phase == phase && s.Party == party {
			d += s.Duration
		}
	}
	return d
}

// spanCount counts a round's spans matching a phase prefix and a party
// prefix.
func spanCount(tr *obs.Trace, phasePrefix, partyPrefix string) int {
	n := 0
	for _, s := range tr.Spans() {
		if strings.HasPrefix(s.Phase, phasePrefix) && strings.HasPrefix(s.Party, partyPrefix) {
			n++
		}
	}
	return n
}

// sealInside totals the chain.seal spans that fall inside the round's
// client span named outer.
func sealInside(tr *obs.Trace, outer string) time.Duration {
	spans := tr.Spans()
	var d time.Duration
	for _, o := range spans {
		if o.Phase != outer || o.Party != "" {
			continue
		}
		for _, s := range spans {
			if s.Phase == "chain.seal" && s.Offset >= o.Offset && s.Offset+s.Duration <= o.Offset+o.Duration {
				d += s.Duration
			}
		}
	}
	return d
}
