package measure_test

import (
	"fmt"
	"testing"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/privilege"
	"repro/internal/workload"
)

// refCounts is the per-node connectivity the one-pass ConnectedCounts
// replaces: one ConnectedPairs walk per node.
func refCounts(g *graph.Graph) map[graph.NodeID]int {
	counts := make(map[graph.NodeID]int, g.NumNodes())
	for _, id := range g.Nodes() {
		counts[id] = g.ConnectedPairs(id)
	}
	return counts
}

// refPathUtility is Figure 3a over refCounts, summed in the same order as
// measure.PathUtility so the two agree bit for bit.
func refPathUtility(spec *account.Spec, a *account.Account) float64 {
	if spec.Graph.NumNodes() == 0 {
		return 0
	}
	connG, connA := refCounts(spec.Graph), refCounts(a.Graph)
	var sum float64
	for _, n := range spec.Graph.Nodes() {
		id, ok := a.Corresponding(n)
		switch {
		case !ok:
		case connG[n] == 0:
			sum++
		default:
			sum += float64(connA[id]) / float64(connG[n])
		}
	}
	return sum / float64(spec.Graph.NumNodes())
}

// refAverageOpacity is the Figure 4 opacity averaged over edges, over
// refCounts.
func refAverageOpacity(a *account.Account, edges []graph.EdgeID, adv measure.Adversary) float64 {
	if len(edges) == 0 {
		return 0
	}
	conn := refCounts(a.Graph)
	nodes := a.Graph.Nodes()
	ie := func(n graph.NodeID) float64 { return adv.InferenceLikelihood(a.Graph.Degree(n)) }
	pool := func(skip graph.NodeID) float64 {
		var s float64
		for _, m := range nodes {
			if m != skip {
				s += ie(m)
			}
		}
		return s
	}
	var sum float64
	for _, e := range edges {
		n1, ok1 := a.Corresponding(e.From)
		n2, ok2 := a.Corresponding(e.To)
		switch {
		case !ok1 || !ok2:
			sum++
			continue
		case a.Graph.HasEdge(n1, n2):
			continue
		}
		var r float64
		if len(nodes) >= 2 {
			var t1, t2 float64
			if s := pool(n1); s > 0 {
				t1 = adv.FocusProbability(conn[n1]) * ie(n2) / s
			}
			if s := pool(n2); s > 0 {
				t2 = adv.FocusProbability(conn[n2]) * ie(n1) / s
			}
			r = (t1 + t2) / 2
		}
		sum += min(max(1-r, 0), 1)
	}
	return sum / float64(len(edges))
}

type parityCase struct {
	name      string
	g         *graph.Graph
	protected []graph.EdgeID
}

func parityCases(t *testing.T) []parityCase {
	t.Helper()
	var cases []parityCase
	for _, m := range workload.Motifs() {
		cases = append(cases, parityCase{"motif " + m.Name, m.Graph, []graph.EdgeID{m.Protected}})
	}
	for _, fam := range workload.Families() {
		syn, err := workload.GenerateFamily(fam, workload.SyntheticConfig{Nodes: 150, TargetConnected: 30, ProtectFraction: 0.3, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, parityCase{"family " + string(fam), syn.Graph, syn.Protected})
	}
	// A cycle a->b->c->a with a tail, which takes the per-node fallback.
	cyc := graph.New()
	for _, id := range []graph.NodeID{"a", "b", "c", "d", "e"} {
		cyc.AddNodeID(id)
	}
	for _, e := range [][2]graph.NodeID{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"c", "d"}, {"d", "e"}} {
		cyc.MustAddEdge(e[0], e[1])
	}
	if cyc.IsDAG() {
		t.Fatal("cyclic case is acyclic")
	}
	cases = append(cases, parityCase{"cyclic", cyc, []graph.EdgeID{{From: "b", To: "c"}, {From: "c", To: "d"}}})
	return cases
}

// The one-pass measures equal, exactly, the same measures computed with
// one ConnectedPairs walk per node, under both protection modes.
func TestMeasuresMatchPerNodeReference(t *testing.T) {
	for _, c := range parityCases(t) {
		for _, surr := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/surrogate=%v", c.name, surr), func(t *testing.T) {
				spec, err := workload.ProtectSpec(c.g, c.protected, surr)
				if err != nil {
					t.Fatal(err)
				}
				a, err := account.Generate(spec, privilege.Public)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := measure.PathUtility(spec, a), refPathUtility(spec, a); got != want {
					t.Errorf("PathUtility = %v, reference %v", got, want)
				}
				var all []graph.EdgeID
				for _, e := range spec.Graph.Edges() {
					all = append(all, e.ID())
				}
				for _, adv := range []measure.Adversary{measure.Figure5(), measure.Naive{}} {
					for _, edges := range [][]graph.EdgeID{c.protected, all} {
						if got, want := measure.AverageOpacity(spec, a, edges, adv), refAverageOpacity(a, edges, adv); got != want {
							t.Errorf("AverageOpacity(%T, %d edges) = %v, reference %v", adv, len(edges), got, want)
						}
					}
				}
			})
		}
	}
}
