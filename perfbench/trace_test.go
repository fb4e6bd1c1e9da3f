package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 covered once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent: 90..100
		{ID: 4, Parent: 2, Name: "b.x", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

// TestSplitSelfTimesAddUp checks the layout of a returned split: every
// part lands inside its parent, over-long parts are clamped, and the
// self times of the op's spans add up to the root's duration.
func TestSplitSelfTimesAddUp(t *testing.T) {
	tr := newTracer()
	ot := tr.begin("lineage_miss")
	t0 := tr.epoch.Add(time.Millisecond)
	root := ot.add("op.lineage", -1, t0, t0.Add(10*time.Millisecond))
	call := ot.add("plusclient.lineage", root, t0.Add(time.Millisecond), t0.Add(10*time.Millisecond))
	ot.split(call,
		part{name: "auth.verify", d: 50 * time.Microsecond},
		part{name: "lineage", d: 3 * time.Millisecond, sub: []part{
			{name: "lineage.fetch", d: time.Millisecond},
			{name: "lineage.build", d: time.Millisecond},
		}},
		part{name: "measure.utilities", d: 20 * time.Millisecond}, // longer than what is left
	)
	ot.end()

	spans := tr.ops[0]
	self := selfTimes(spans)
	var sum int64
	for i, s := range spans {
		if s.Kind != "lineage_miss" || s.Op != ot.id {
			t.Fatalf("span %s not filed under its op", s.Name)
		}
		if s.Parent >= 0 && (s.Start < spans[s.Parent].Start || s.End > spans[s.Parent].End) {
			t.Fatalf("span %s [%d,%d] leaves its parent", s.Name, s.Start, s.End)
		}
		sum += self[i]
	}
	if sum != spans[root].dur() {
		t.Fatalf("self times sum to %d, root lasts %d", sum, spans[root].dur())
	}
	byName := map[string]int64{}
	for i, s := range spans {
		byName[s.Name] = self[i]
	}
	if byName["lineage"] != int64(time.Millisecond) {
		t.Errorf("lineage self %d, want the 1ms its phases leave", byName["lineage"])
	}
	if byName["plusclient.lineage"] != 0 {
		t.Errorf("plusclient self %d, want 0 once utilities fill the call", byName["plusclient.lineage"])
	}
	kbs := tr.breakdown()
	if len(kbs) != 1 || kbs[0].maxError != 0 || kbs[0].totalNs != spans[root].dur() {
		t.Fatalf("breakdown %+v", kbs[0])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ot := tr.begin("x")
	if id := ot.add("op", -1, time.Now(), time.Now()); id != -1 {
		t.Fatalf("nil trace returned span id %d", id)
	}
	ot.split(0, part{name: "a", d: time.Millisecond})
	ot.end()
}
