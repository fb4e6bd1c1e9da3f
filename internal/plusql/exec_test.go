package plusql

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/privilege"
)

// exampleBackend builds the running-example store:
//
//	d -> a -> p -> b      p: invocation, Lowest Protected, surrogate p~
//	     c ------> b      c: Lowest Protected, Protect hide (no surrogate)
//
// A Public consumer's protected account is d -> a -> p~ -> b: p appears
// only as its surrogate, c not at all.
func exampleBackend(t testing.TB) plus.Backend {
	t.Helper()
	b := plus.NewMemBackend()
	t.Cleanup(func() { b.Close() })
	objs := []plus.Object{
		{ID: "a", Kind: plus.Data, Name: "raw", Features: map[string]string{"owner": "alice"}},
		{ID: "b", Kind: plus.Data, Name: "report", Features: map[string]string{"owner": "alice"}},
		{ID: "c", Kind: plus.Data, Name: "secret-src", Lowest: "Protected", Protect: "hide"},
		{ID: "d", Kind: plus.Data, Name: "field-data", Features: map[string]string{"owner": "bob"}},
		{ID: "p", Kind: plus.Invocation, Name: "classified-process", Lowest: "Protected"},
	}
	for _, o := range objs {
		if err := b.PutObject(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []plus.Edge{
		{From: "d", To: "a", Label: "input-to"},
		{From: "a", To: "p", Label: "input-to"},
		{From: "p", To: "b", Label: "generated"},
		{From: "c", To: "b", Label: "input-to"},
	} {
		if err := b.PutEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.PutSurrogate(plus.SurrogateSpec{
		ForID: "p", ID: "p~", Name: "a process", InfoScore: 0.5,
		Features: map[string]string{"kind": "invocation"},
	}); err != nil {
		t.Fatal(err)
	}
	return b
}

func ids(t *testing.T, rs *ResultSet, v string) []string {
	t.Helper()
	col := -1
	for i, name := range rs.Vars {
		if name == v {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("var %s not in result vars %v", v, rs.Vars)
	}
	var out []string
	for _, row := range rs.Rows {
		out = append(out, row[col].ID)
	}
	sort.Strings(out)
	return out
}

func strEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQueryPublicViewerTraversesSurrogates(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())

	rs, err := e.Query(`ancestor*(X, "b")`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ids(t, rs, "X"), []string{"a", "d", "p~"}; !strEq(got, want) {
		t.Errorf("Public ancestors of b = %v, want %v", got, want)
	}
	for _, row := range rs.Rows {
		if row[0].ID == "p~" && !row[0].Surrogate {
			t.Errorf("p~ not flagged as surrogate: %+v", row[0])
		}
	}

	// The protected original and the hidden node never appear, and the
	// surrogate's features are the provider-released ones.
	rs, err = e.Query(`node(X)`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rs.Rows {
		switch row[0].ID {
		case "p", "c":
			t.Errorf("policy leak: %s visible to Public", row[0].ID)
		case "p~":
			if row[0].Name != "a process" {
				t.Errorf("surrogate name = %q, want provider-released", row[0].Name)
			}
		}
	}
}

func TestQueryProtectedViewerSeesOriginals(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	rs, err := e.Query(`ancestor*(X, "b")`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ids(t, rs, "X"), []string{"a", "c", "d", "p"}; !strEq(got, want) {
		t.Errorf("Protected ancestors of b = %v, want %v", got, want)
	}
}

// TestQueryParityWithVerifiedAccount is the acceptance check: Public
// query bindings coincide exactly with the account.Verify-checked
// protected account the Surrogate Generation Algorithm produces.
func TestQueryParityWithVerifiedAccount(t *testing.T) {
	b := exampleBackend(t)
	lat := privilege.TwoLevel()
	e := NewEngine(b, lat)

	sn, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := plus.SpecFromSnapshot(sn, lat)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := account.Generate(spec, privilege.Public)
	if err != nil {
		t.Fatal(err)
	}
	if err := account.VerifySound(spec, acct); err != nil {
		t.Fatalf("reference account unsound: %v", err)
	}
	if err := account.VerifyMaximal(spec, acct); err != nil {
		t.Fatalf("reference account not maximal: %v", err)
	}

	// node(X) must enumerate exactly the verified account's nodes.
	rs, err := e.Query(`node(X)`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, id := range acct.Graph.Nodes() {
		want = append(want, string(id))
	}
	sort.Strings(want)
	if got := ids(t, rs, "X"); !strEq(got, want) {
		t.Errorf("node(X) = %v, want verified account nodes %v", got, want)
	}

	// edge(X, Y) must enumerate exactly the verified account's edges.
	rs, err = e.Query(`edge(X, Y)`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var gotEdges, wantEdges []string
	for _, row := range rs.Rows {
		gotEdges = append(gotEdges, row[0].ID+"->"+row[1].ID)
	}
	for _, ge := range acct.Graph.Edges() {
		wantEdges = append(wantEdges, string(ge.From)+"->"+string(ge.To))
	}
	sort.Strings(gotEdges)
	sort.Strings(wantEdges)
	if !strEq(gotEdges, wantEdges) {
		t.Errorf("edge(X, Y) = %v, want verified account edges %v", gotEdges, wantEdges)
	}

	// ancestor* must match reachability in the verified account graph.
	for _, target := range acct.Graph.Nodes() {
		rs, err := e.Query(fmt.Sprintf("ancestor*(X, %q)", target), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wantAnc []string
		for id := range acct.Graph.Reachable(target, graph.Backward) {
			wantAnc = append(wantAnc, string(id))
		}
		sort.Strings(wantAnc)
		got := ids(t, rs, "X")
		if !strEq(got, wantAnc) {
			t.Errorf("ancestor*(X, %s) = %v, want %v", target, got, wantAnc)
		}
	}
}

func TestQueryHideModeMatchesGenerateHide(t *testing.T) {
	b := exampleBackend(t)
	lat := privilege.TwoLevel()
	e := NewEngine(b, lat)

	sn, _ := b.Snapshot()
	spec, err := plus.SpecFromSnapshot(sn, lat)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := account.GenerateHide(spec, privilege.Public)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.Query(`node(X)`, Options{Mode: plus.ModeHide})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, id := range acct.Graph.Nodes() {
		want = append(want, string(id))
	}
	sort.Strings(want)
	if got := ids(t, rs, "X"); !strEq(got, want) {
		t.Errorf("hide-mode node(X) = %v, want %v", got, want)
	}
}

func TestQueryPredicates(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	cases := []struct {
		src  string
		v    string
		want []string
	}{
		{`kind(X, data)`, "X", []string{"a", "b", "c", "d"}},
		{`kind(X, invocation)`, "X", []string{"p"}},
		{`name(X, "report")`, "X", []string{"b"}},
		{`attr(X, "owner", "bob")`, "X", []string{"d"}},
		{`edge(X, "b", "generated")`, "X", []string{"p"}},
		{`ancestor(X, "p")`, "X", []string{"a"}},
		{`descendant(X, "a")`, "X", []string{"p"}},
		{`descendant*(X, "d")`, "X", []string{"a", "b", "p"}},
		{`ans(Y) :- edge("a", Y)`, "Y", []string{"p"}},
		{`node(X), surrogate(X)`, "X", nil},
		{`kind(X, data), ancestor*(X, "b"), attr(X, "owner", "alice")`, "X", []string{"a"}},
	}
	for _, tc := range cases {
		rs, err := e.Query(tc.src, Options{Viewer: "Protected"})
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if got := ids(t, rs, tc.v); !strEq(got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestQueryLimitAndSetSemantics(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	rs, err := e.Query(`ancestor*(X, "b") limit 2`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Errorf("limit 2 returned %d rows", len(rs.Rows))
	}
	// Projection can collapse rows: distinct (X, Y) pairs projected to X
	// must dedupe.
	rs, err = e.Query(`ans(Y) :- ancestor*(X, Y)`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, row := range rs.Rows {
		if seen[row[0].ID] {
			t.Fatalf("duplicate projected row %q", row[0].ID)
		}
		seen[row[0].ID] = true
	}
}

// TestQueryPairScanStreamsUnderLimit: a both-unbound closure atom with a
// limit must not enumerate every node's closure — the pair scan streams
// lazily, so execution stops at the first emitted row.
func TestQueryPairScanStreamsUnderLimit(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	rs, err := e.Query(`ancestor*(X, Y) limit 1`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("limit 1 returned %d rows", len(rs.Rows))
	}
	if rs.Stats.Examined > 2 {
		t.Errorf("pair scan examined %d candidates for limit 1, want <= 2", rs.Stats.Examined)
	}
}

func TestQueryMaxRowsCap(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	rs, err := e.Query(`node(X)`, Options{Viewer: "Protected", MaxRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Errorf("MaxRows 1 returned %d rows", len(rs.Rows))
	}
}

func TestQueryUnknownViewerAndMode(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	if _, err := e.Query(`node(X)`, Options{Viewer: "Nobody"}); err == nil {
		t.Error("no error for unknown viewer")
	}
	if _, err := e.Query(`node(X)`, Options{Mode: "bogus"}); err == nil {
		t.Error("no error for unknown mode")
	}
}

func TestQueryUnknownConstantAnchor(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	rs, err := e.Query(`ancestor*(X, "no-such-node")`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Errorf("unknown anchor returned %d rows", len(rs.Rows))
	}
	// A Protect-hidden node used as a constant anchor is indistinguishable
	// from an unknown one: no rows, no error.
	rs, err = e.Query(`ancestor*(X, "c")`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Errorf("hidden anchor leaked %d rows", len(rs.Rows))
	}
}

// TestQueryConstantCheckNotDropped: an all-constant filter atom must
// survive planning even when the planner orders a generator before it
// (regression: pushDown used to swallow node("const") checks).
func TestQueryConstantCheckNotDropped(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	rs, err := e.Query(`ancestor*(X, "b"), node("ghost")`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Errorf("node(\"ghost\") conjunct dropped: got %d rows", len(rs.Rows))
	}
	rs, err = e.Query(`ancestor*(X, "b"), node("a"), kind("p", invocation)`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 4 {
		t.Errorf("true constant checks changed results: got %d rows, want 4", len(rs.Rows))
	}
}

// TestQueryViewInvalidation checks queries see writes: the view cache is
// keyed by store revision.
func TestQueryViewInvalidation(t *testing.T) {
	b := exampleBackend(t)
	e := NewEngine(b, privilege.TwoLevel())
	rs, err := e.Query(`kind(X, data)`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	before := len(rs.Rows)
	if err := b.PutObject(plus.Object{ID: "z", Kind: plus.Data, Name: "new"}); err != nil {
		t.Fatal(err)
	}
	rs, err = e.Query(`kind(X, data)`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != before+1 {
		t.Errorf("after write: %d rows, want %d", len(rs.Rows), before+1)
	}
}

// TestQueryConcurrent exercises the view cache and closure memo under
// the race detector (the CI race step runs this package).
func TestQueryConcurrent(t *testing.T) {
	b := exampleBackend(t)
	e := NewEngine(b, privilege.TwoLevel())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			viewer := privilege.Predicate("Protected")
			if i%2 == 0 {
				viewer = privilege.Public
			}
			for j := 0; j < 20; j++ {
				if _, err := e.Query(`ancestor*(X, "b"), kind(X, data)`, Options{Viewer: viewer}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				id := fmt.Sprintf("w%d-%d", i, j)
				if err := b.PutObject(plus.Object{ID: id, Kind: plus.Data, Name: id}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestPlannedBeatsNaive asserts the planner's ordering + pushdown does
// strictly less work than naive source-order scan-and-filter on the
// pattern the benchmarks measure.
func TestPlannedBeatsNaive(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	src := `kind(X, data), ancestor*(X, "b")`
	planned, err := e.Query(src, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := e.Query(src, Options{Viewer: "Protected", Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strEq(ids(t, planned, "X"), ids(t, naive, "X")) {
		t.Fatalf("planned %v != naive %v", ids(t, planned, "X"), ids(t, naive, "X"))
	}
	if planned.Stats.Examined >= naive.Stats.Examined {
		t.Errorf("planned examined %d >= naive %d", planned.Stats.Examined, naive.Stats.Examined)
	}
}
