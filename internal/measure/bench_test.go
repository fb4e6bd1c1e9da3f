package measure_test

import (
	"fmt"
	"testing"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/policy"
	"repro/internal/privilege"
	"repro/internal/surrogate"
)

// pipelineSpec is the closure of one provenance pipeline of the given
// number of steps: a source, then per step a side input and the previous
// output feeding an invocation that generates the step's output. Every
// tenth invocation is Protected with a Public surrogate, as in the
// lineage_pipeline serving benchmark.
func pipelineSpec(tb testing.TB, steps int) *account.Spec {
	tb.Helper()
	g := graph.New()
	lat := privilege.TwoLevel()
	lb := privilege.NewLabeling(lat)
	pol := policy.New(lat)
	reg := surrogate.NewRegistry(lb)
	prev := graph.NodeID("src")
	g.AddNodeID(prev)
	for i := 0; i < steps; i++ {
		side := graph.NodeID(fmt.Sprintf("side%d", i))
		inv := graph.NodeID(fmt.Sprintf("inv%d", i))
		out := graph.NodeID(fmt.Sprintf("out%d", i))
		g.AddNodeID(side)
		g.AddNodeID(inv)
		g.AddNodeID(out)
		g.MustAddEdge(prev, inv)
		g.MustAddEdge(side, inv)
		g.MustAddEdge(inv, out)
		if i%10 == 9 {
			if err := lb.SetNode(inv, "Protected"); err != nil {
				tb.Fatal(err)
			}
			if err := pol.SetNodeThreshold(inv, "Protected", policy.Surrogate); err != nil {
				tb.Fatal(err)
			}
			if err := reg.Add(inv, surrogate.Surrogate{ID: inv + "~", Lowest: privilege.Public, InfoScore: 0.5}); err != nil {
				tb.Fatal(err)
			}
		}
		prev = out
	}
	return &account.Spec{Graph: g, Labeling: lb, Policy: pol, Surrogates: reg}
}

// BenchmarkPathUtility times the Figure 3a measure on pipeline closures
// of about 450 and 2000 nodes against their Public protected account.
func BenchmarkPathUtility(b *testing.B) {
	for _, steps := range []int{150, 667} {
		spec := pipelineSpec(b, steps)
		a, err := account.Generate(spec, privilege.Public)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("nodes=%d", spec.Graph.NumNodes()), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				measure.PathUtility(spec, a)
			}
		})
	}
}
