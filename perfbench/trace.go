package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of an op. Spans of one op share Op; Parent
// is the index of the enclosing span within the op (-1 for the root).
// Times are nanoseconds since the tracer started.
type span struct {
	Op     uint64 `json:"op"`
	Kind   string `json:"kind"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of every traced op in memory until the run
// writes them out. A nil *tracer records nothing, so untraced runs pay
// one nil check per op.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	ops   [][]span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opTrace builds the span tree of one op.
type opTrace struct {
	t     *tracer
	id    uint64
	kind  string
	spans []span
}

// begin opens an op of the given kind (its spans are classified by it,
// e.g. "lineage_miss"); the kind may be refined before end.
func (t *tracer) begin(kind string) *opTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &opTrace{t: t, id: id, kind: kind}
}

// add records a span under parent (-1 for the root) and returns its id.
func (o *opTrace) add(name string, parent int, start, end time.Time) int {
	if o == nil {
		return -1
	}
	o.spans = append(o.spans, span{
		Op: o.id, ID: len(o.spans), Parent: parent, Name: name,
		Start: start.Sub(o.t.epoch).Nanoseconds(), End: end.Sub(o.t.epoch).Nanoseconds(),
	})
	return len(o.spans) - 1
}

// part is one phase of a split a layer returned (Timing, Phases), or a
// duration the benchmark measured for a step inside a call it cannot
// see into.
type part struct {
	name string
	d    time.Duration
	sub  []part
}

// split lays parts out back to back from the start of parent, clamped
// to parent's end, as children of parent. A layer reports how long each
// phase took, not when it ran, so the placement inside the parent is
// nominal; the durations, and so every self time, are what was measured.
func (o *opTrace) split(parent int, parts ...part) {
	if o == nil || parent < 0 {
		return
	}
	at := o.spans[parent].Start
	limit := o.spans[parent].End
	for _, p := range parts {
		if p.d <= 0 {
			continue
		}
		end := at + p.d.Nanoseconds()
		if end > limit {
			end = limit
		}
		o.spans = append(o.spans, span{Op: o.id, ID: len(o.spans), Parent: parent, Name: p.name, Start: at, End: end})
		if len(p.sub) > 0 {
			o.split(len(o.spans)-1, p.sub...)
		}
		at = end
	}
}

// end files the op's spans with the tracer.
func (o *opTrace) end() {
	if o == nil {
		return
	}
	for i := range o.spans {
		o.spans[i].Kind = o.kind
	}
	o.t.mu.Lock()
	o.t.ops = append(o.t.ops, o.spans)
	o.t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover (children clipped to the parent,
// overlaps between children counted once).
func selfTimes(spans []span) []int64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.Start, s.End, kids[i])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// [start, end).
func covered(start, end int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			if x[1] > curB {
				curB = x[1]
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// kindBreakdown is the self-time split of one op kind. Span names are
// "<layer>.<step>", so the split reads per layer and per step within it;
// the self time of a plusclient span is the wire and the JSON codec.
type kindBreakdown struct {
	kind     string
	ops      int
	totalNs  int64
	selfNs   map[string]int64 // by span name
	maxError float64          // worst |sum(self) - root| / root over the ops
}

// breakdown aggregates self times by op kind and span name.
func (t *tracer) breakdown() []*kindBreakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	byKind := map[string]*kindBreakdown{}
	for _, spans := range t.ops {
		if len(spans) == 0 {
			continue
		}
		kb := byKind[spans[0].Kind]
		if kb == nil {
			kb = &kindBreakdown{kind: spans[0].Kind, selfNs: map[string]int64{}}
			byKind[kb.kind] = kb
		}
		self := selfTimes(spans)
		var sum int64
		for i, s := range spans {
			kb.selfNs[s.Name] += self[i]
			sum += self[i]
		}
		root := spans[0].dur()
		kb.ops++
		kb.totalNs += root
		if root > 0 {
			if e := float64(abs64(sum-root)) / float64(root); e > kb.maxError {
				kb.maxError = e
			}
		}
	}
	out := make([]*kindBreakdown, 0, len(byKind))
	for _, kb := range byKind {
		out = append(out, kb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].kind < out[j].kind })
	return out
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// printBreakdown renders, per op kind, each span's mean self time and
// share of the op total, largest first.
func printBreakdown(kbs []*kindBreakdown) {
	for _, kb := range kbs {
		fmt.Printf("# trace %s: %d ops, mean %.3f ms, self times sum to the op total within %.2g%%\n",
			kb.kind, kb.ops, float64(kb.totalNs)/float64(kb.ops)/1e6, 100*kb.maxError)
		names := make([]string, 0, len(kb.selfNs))
		for n := range kb.selfNs {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return kb.selfNs[names[i]] > kb.selfNs[names[j]] })
		for _, l := range names {
			fmt.Printf("#   %-20s self %9.3f ms  %5.1f%%\n", l,
				float64(kb.selfNs[l])/float64(kb.ops)/1e6, 100*float64(kb.selfNs[l])/float64(kb.totalNs))
		}
	}
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	all := []span{}
	for _, spans := range t.ops {
		all = append(all, spans...)
	}
	t.mu.Unlock()
	data, err := json.Marshal(all)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
