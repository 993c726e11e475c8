package telemetry

import (
	"sort"
)

// SpanNode is one span linked into its trace's tree.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode
}

// SpanTree is the assembled causal tree of one trace. Roots are spans
// without a retained parent — a fully captured trace has exactly one;
// spans whose parent was evicted from a tracer's ring surface as
// additional roots rather than disappearing.
type SpanTree struct {
	Roots []*SpanNode
	// Spans counts the distinct spans in the tree.
	Spans int
}

// BuildSpanTree assembles span records (from any number of tracers —
// coordinator, workers, job service) into one tree. Duplicates by
// span_id collapse to a single node, so fetching overlapping sources is
// harmless. Children are ordered by start time; roots likewise.
func BuildSpanTree(spans []SpanRecord) *SpanTree {
	nodes := make(map[string]*SpanNode, len(spans))
	order := make([]string, 0, len(spans))
	for _, s := range spans {
		if s.SpanID == "" {
			continue
		}
		if _, seen := nodes[s.SpanID]; seen {
			continue
		}
		nodes[s.SpanID] = &SpanNode{SpanRecord: s}
		order = append(order, s.SpanID)
	}
	t := &SpanTree{Spans: len(nodes)}
	for _, id := range order {
		n := nodes[id]
		if p, ok := nodes[n.ParentID]; ok && n.ParentID != n.SpanID {
			p.Children = append(p.Children, n)
		} else {
			t.Roots = append(t.Roots, n)
		}
	}
	byStart := func(ns []*SpanNode) {
		sort.Slice(ns, func(a, b int) bool { return ns[a].StartUnixNS < ns[b].StartUnixNS })
	}
	byStart(t.Roots)
	for _, n := range nodes {
		byStart(n.Children)
	}
	return t
}

// SelfMS returns the span's self time: its duration minus the union of
// its children's intervals clipped to its own. Concurrent children
// (parallel shard dispatches) overlap; the union counts each covered
// instant once. Note that overlapping SIBLINGS each still count their
// full own duration — for a breakdown that partitions wall time exactly,
// use StageBreakdown, which attributes every instant to one span.
func (n *SpanNode) SelfMS() float64 {
	if len(n.Children) == 0 {
		return n.DurationMS
	}
	start, end := n.StartUnixNS, n.EndUnixNS()
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(n.Children))
	for _, c := range n.Children {
		a, b := c.StartUnixNS, c.EndUnixNS()
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	var curA, curB int64
	haveCur := false
	for _, v := range ivs {
		if !haveCur {
			curA, curB, haveCur = v.a, v.b, true
			continue
		}
		if v.a <= curB {
			if v.b > curB {
				curB = v.b
			}
			continue
		}
		covered += curB - curA
		curA, curB = v.a, v.b
	}
	if haveCur {
		covered += curB - curA
	}
	self := n.DurationMS - float64(covered)/1e6
	if self < 0 {
		return 0
	}
	return self
}

// StageBreakdown attributes every instant of the subtree's wall time to
// exactly one span — the innermost span covering it (depth wins;
// equal-depth overlapping siblings go to the latest-started, a
// deterministic tie-break for concurrent shard dispatches) — and sums
// the attribution by span name. The result is the per-stage view
// (queued / gate_wait / dispatch / eval / stream / merge, plus the root
// span's own scheduling overhead) of one trace's wall time, and because
// the attribution is a partition, the stage totals sum to the root
// span's duration exactly: the breakdown reconciles against the
// measured makespan by construction, never by luck.
func (n *SpanNode) StageBreakdown() map[string]float64 {
	type flat struct {
		a, b  int64
		depth int
		name  string
	}
	var spans []flat
	var walk func(m *SpanNode, depth int, clipA, clipB int64)
	walk = func(m *SpanNode, depth int, clipA, clipB int64) {
		a, b := m.StartUnixNS, m.EndUnixNS()
		if a < clipA {
			a = clipA
		}
		if b > clipB {
			b = clipB
		}
		if b <= a {
			return // clipped away entirely (clock skew / evicted window)
		}
		spans = append(spans, flat{a: a, b: b, depth: depth, name: m.Name})
		for _, c := range m.Children {
			walk(c, depth+1, a, b)
		}
	}
	walk(n, 0, n.StartUnixNS, n.EndUnixNS())

	pts := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		pts = append(pts, s.a, s.b)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	out := make(map[string]float64)
	for i := 0; i+1 < len(pts); i++ {
		segA, segB := pts[i], pts[i+1]
		if segB <= segA {
			continue
		}
		best := -1
		for j, s := range spans {
			if s.a > segA || s.b < segB {
				continue
			}
			if best < 0 || s.depth > spans[best].depth ||
				(s.depth == spans[best].depth && s.a > spans[best].a) {
				best = j
			}
		}
		if best >= 0 {
			out[spans[best].name] += float64(segB-segA) / 1e6
		}
	}
	return out
}

// CriticalPath returns the chain of spans that determined when the
// subtree rooted at n ended: from n, repeatedly descend into the child
// that finished last. Shortening any span on this path shortens the
// run; spans off it ran in someone else's shadow.
func (n *SpanNode) CriticalPath() []*SpanNode {
	path := []*SpanNode{n}
	cur := n
	for len(cur.Children) > 0 {
		last := cur.Children[0]
		for _, c := range cur.Children[1:] {
			if c.EndUnixNS() > last.EndUnixNS() {
				last = c
			}
		}
		path = append(path, last)
		cur = last
	}
	return path
}
