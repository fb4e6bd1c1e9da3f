package graph

import (
	"encoding/json"
	"testing"
)

// FuzzGraphJSON feeds arbitrary bytes into the graph decoder: it must
// never panic, anything it accepts must re-encode and decode to an equal
// graph, and the one-pass ConnectedCounts must agree with per-node
// ConnectedPairs on it (acyclic or not).
func FuzzGraphJSON(f *testing.F) {
	f.Add([]byte(`{"nodes":[{"id":"a"},{"id":"b","features":{"k":"v"}}],"edges":[{"from":"a","to":"b","label":"l"}]}`))
	f.Add([]byte(`{"nodes":[],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"id":"a"}],"edges":[{"from":"a","to":"a"}]}`))
	f.Add([]byte(`{"nodes":[{"id":"a"},{"id":"b"},{"id":"c"}],"edges":[{"from":"a","to":"b"},{"from":"b","to":"a"},{"from":"b","to":"c"}]}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return // rejected: fine
		}
		out, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("accepted graph failed to marshal: %v", err)
		}
		var back Graph
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("round trip failed to decode: %v", err)
		}
		if !g.Equal(&back) {
			t.Fatal("round trip changed the graph")
		}
		// Basic invariants hold on anything accepted.
		if g.NumEdges() > 0 && g.NumNodes() == 0 {
			t.Fatal("edges without nodes")
		}
		for _, e := range g.Edges() {
			if !g.HasNode(e.From) || !g.HasNode(e.To) {
				t.Fatalf("dangling edge %s", e.ID())
			}
		}
		counts := g.ConnectedCounts()
		for _, id := range g.Nodes() {
			if want := g.ConnectedPairs(id); counts[id] != want {
				t.Fatalf("ConnectedCounts()[%s] = %d, ConnectedPairs = %d", id, counts[id], want)
			}
		}
	})
}
