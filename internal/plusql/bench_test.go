package plusql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/privilege"
	"repro/internal/workload"
)

// motifStore tiles the Figure 6 workload motifs into a backend: `copies`
// namespaced instances of each motif, every sink feeding a global target
// "t", with each motif's designated protected node stored at Lowest
// Protected alongside a provider surrogate. Public-viewer queries over
// the result traverse surrogates throughout.
func motifStore(tb testing.TB, copies int) plus.Backend {
	tb.Helper()
	be := plus.NewMemBackend()
	tb.Cleanup(func() { be.Close() })
	put := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	put(be.PutObject(plus.Object{ID: "t", Kind: plus.Data, Name: "target"}))
	for k := 0; k < copies; k++ {
		for _, m := range workload.Motifs() {
			prefix := fmt.Sprintf("%s%d_", strings.ToLower(m.Name), k)
			protected := prefix + string(m.Protected.To)
			for i, id := range m.Graph.Nodes() {
				kind := plus.Data
				if i%3 == 2 {
					kind = plus.Invocation
				}
				o := plus.Object{ID: prefix + string(id), Kind: kind, Name: string(id)}
				if o.ID == protected {
					o.Lowest = "Protected"
				}
				put(be.PutObject(o))
			}
			for _, e := range m.Graph.Edges() {
				put(be.PutEdge(plus.Edge{
					From: prefix + string(e.From), To: prefix + string(e.To), Label: "input-to",
				}))
			}
			put(be.PutSurrogate(plus.SurrogateSpec{
				ForID: protected, ID: protected + "~", Name: "withheld",
				InfoScore: 0.5, Features: map[string]string{"kind": "data"},
			}))
			for _, id := range m.Graph.Nodes() {
				if m.Graph.OutDegree(id) == 0 {
					put(be.PutEdge(plus.Edge{From: prefix + string(id), To: "t", Label: "input-to"}))
				}
			}
		}
	}
	return be
}

// benchQuery is the motif workload's representative question: "which data
// nodes are in the (protected) lineage of this sink?" — written with the
// filter first, so naive source-order execution scans the whole store and
// reach-checks every data node, while the planner anchors on the closure
// and only examines the few true ancestors.
const benchQuery = `kind(X, data), ancestor*(X, "chain0_e")`

// BenchmarkPLUSQLPlanned measures planned execution (selectivity
// ordering + predicate pushdown) as the Public viewer.
func BenchmarkPLUSQLPlanned(b *testing.B) {
	e := NewEngine(motifStore(b, 30), privilege.TwoLevel())
	if _, err := e.Query(benchQuery, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := e.Query(benchQuery, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rs.Stats.Rows == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkPLUSQLNaiveScanFilter measures the same query evaluated by
// naive source-order scan-and-filter over the same cached view.
func BenchmarkPLUSQLNaiveScanFilter(b *testing.B) {
	e := NewEngine(motifStore(b, 30), privilege.TwoLevel())
	if _, err := e.Query(benchQuery, Options{Naive: true}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := e.Query(benchQuery, Options{Naive: true})
		if err != nil {
			b.Fatal(err)
		}
		if rs.Stats.Rows == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkPLUSQLLineageEquivalent measures the closest hand-written
// lineage-engine call: the full protected ancestry account of the target
// for the Public viewer (the fixed-shape query PLUSQL generalises).
func BenchmarkPLUSQLLineageEquivalent(b *testing.B) {
	be := motifStore(b, 30)
	en := plus.NewEngine(be, privilege.TwoLevel())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := en.Lineage(plus.Request{Start: "t", Direction: graph.Backward})
		if err != nil {
			b.Fatal(err)
		}
		if res.Account.Graph.NumNodes() == 0 {
			b.Fatal("empty account")
		}
	}
}

// TestBenchWorkloadPlannedBeatsNaive pins the acceptance criterion
// deterministically (benchmarks only report it): on the tiled motif
// workload the planner examines far fewer candidates than naive
// scan-and-filter while returning identical rows.
func TestBenchWorkloadPlannedBeatsNaive(t *testing.T) {
	e := NewEngine(motifStore(t, 10), privilege.TwoLevel())
	planned, err := e.Query(benchQuery, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := e.Query(benchQuery, Options{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(planned.Rows) == 0 || len(planned.Rows) != len(naive.Rows) {
		t.Fatalf("row mismatch: planned %d, naive %d", len(planned.Rows), len(naive.Rows))
	}
	if planned.Stats.Examined*2 > naive.Stats.Examined {
		t.Errorf("planned examined %d, naive %d: want at least 2x reduction",
			planned.Stats.Examined, naive.Stats.Examined)
	}
}
