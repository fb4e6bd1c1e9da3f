package plusql

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/privilege"
)

// assertSameView checks an advanced view is indistinguishable from a view
// built from scratch off the same snapshot: same nodes, kinds, adjacency
// and reachability answers.
func assertSameView(t *testing.T, label string, got, want *View) {
	t.Helper()
	if got.Revision() != want.Revision() {
		t.Fatalf("%s: revision %d != %d", label, got.Revision(), want.Revision())
	}
	if fmt.Sprint(got.Nodes()) != fmt.Sprint(want.Nodes()) {
		t.Fatalf("%s: nodes differ:\n got %v\nwant %v", label, got.Nodes(), want.Nodes())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: edges %d != %d", label, got.NumEdges(), want.NumEdges())
	}
	if !got.Account().Graph.Equal(want.Account().Graph) {
		t.Fatalf("%s: account graphs differ:\n got %v\nwant %v",
			label, got.Account().Graph.Edges(), want.Account().Graph.Edges())
	}
	for _, kind := range []string{"data", "invocation"} {
		if fmt.Sprint(got.NodesByKind(kind)) != fmt.Sprint(want.NodesByKind(kind)) {
			t.Fatalf("%s: kind %q index differs:\n got %v\nwant %v",
				label, kind, got.NodesByKind(kind), want.NodesByKind(kind))
		}
	}
	for _, id := range want.Nodes() {
		if fmt.Sprint(got.Out(id)) != fmt.Sprint(want.Out(id)) {
			t.Fatalf("%s: Out(%s) differs:\n got %v\nwant %v", label, id, got.Out(id), want.Out(id))
		}
		if fmt.Sprint(got.In(id)) != fmt.Sprint(want.In(id)) {
			t.Fatalf("%s: In(%s) differs:\n got %v\nwant %v", label, id, got.In(id), want.In(id))
		}
		if fmt.Sprint(got.Features(id)) != fmt.Sprint(want.Features(id)) {
			t.Fatalf("%s: Features(%s) differ", label, id)
		}
		if fmt.Sprint(got.Reach(id, graph.Forward)) != fmt.Sprint(want.Reach(id, graph.Forward)) {
			t.Fatalf("%s: Reach(%s, fwd) differs:\n got %v\nwant %v",
				label, id, got.Reach(id, graph.Forward), want.Reach(id, graph.Backward))
		}
		if fmt.Sprint(got.Reach(id, graph.Backward)) != fmt.Sprint(want.Reach(id, graph.Backward)) {
			t.Fatalf("%s: Reach(%s, back) differs", label, id)
		}
	}
}

// advanceParity drives interleaved writes and view advances against one
// backend, asserting parity with from-scratch builds at every revision.
func advanceParity(t *testing.T, b plus.Backend, mode plus.Mode) {
	lat := privilege.TwoLevel()
	sn, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(sn, lat, privilege.Public, mode)
	if err != nil {
		t.Fatal(err)
	}

	// Warm some reachability memos so the patch path has state to keep.
	for _, id := range v.Nodes() {
		v.Reach(id, graph.Forward)
	}

	check := func(label string) {
		t.Helper()
		sn, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		nv, info, ok := v.Advance(sn)
		if !ok {
			t.Fatalf("%s: advance refused", label)
		}
		want, err := NewView(sn, lat, privilege.Public, mode)
		if err != nil {
			t.Fatal(err)
		}
		assertSameView(t, fmt.Sprintf("%s (dirty=%d rebuilt=%v)", label, info.Dirty, info.AccountRebuilt), nv, want)
		v = nv
	}

	// Additive growth: a fresh branch with a protected node + surrogate in
	// one batch.
	batch := plus.Batch{
		Objects: []plus.Object{
			{ID: "n1", Kind: plus.Data, Name: "n1"},
			{ID: "n2", Kind: plus.Invocation, Name: "n2", Lowest: "Protected", Protect: "surrogate"},
		},
		Edges:      []plus.Edge{{From: "b", To: "n1", Label: "input-to"}, {From: "n1", To: "n2", Label: "input-to"}},
		Surrogates: []plus.SurrogateSpec{{ForID: "n2", ID: "n2~", Name: "anon", InfoScore: 0.4}},
	}
	if _, err := b.Apply(batch); err != nil {
		t.Fatal(err)
	}
	check("batch with protected node")

	// A single public write.
	if err := b.PutObject(plus.Object{ID: "n3", Kind: plus.Data, Name: "n3"}); err != nil {
		t.Fatal(err)
	}
	check("single object")

	// An edge into the protected chain.
	if err := b.PutEdge(plus.Edge{From: "n3", To: "n2", Label: "input-to"}); err != nil {
		t.Fatal(err)
	}
	check("edge into protected chain")

	// A benign feature refresh of an existing node.
	if err := b.PutObject(plus.Object{ID: "a", Kind: plus.Data, Name: "raw v2", Features: map[string]string{"owner": "alice"}}); err != nil {
		t.Fatal(err)
	}
	check("feature refresh")

	// A protection change: node becomes hidden. Localisation fails for the
	// surrogate generator (account rebuild) but the advance still lands on
	// the scratch view; hide mode patches it incrementally.
	if err := b.PutObject(plus.Object{ID: "n1", Kind: plus.Data, Name: "n1", Lowest: "Protected", Protect: "hide"}); err != nil {
		t.Fatal(err)
	}
	check("reclassification")

	// A marked edge.
	if err := b.PutObject(plus.Object{ID: "n4", Kind: plus.Data, Name: "n4"}); err != nil {
		t.Fatal(err)
	}
	if err := b.PutEdge(plus.Edge{From: "n4", To: "n3", Label: "input-to", Marking: "surrogate", Lowest: "Protected"}); err != nil {
		t.Fatal(err)
	}
	check("marked edge")
}

func TestViewAdvanceParitySurrogate(t *testing.T) {
	advanceParity(t, exampleBackend(t), plus.ModeSurrogate)
}

func TestViewAdvanceParityHide(t *testing.T) {
	advanceParity(t, exampleBackend(t), plus.ModeHide)
}

func TestViewAdvanceSpecIsOneShot(t *testing.T) {
	b := exampleBackend(t)
	lat := privilege.TwoLevel()
	sn, _ := b.Snapshot()
	v, err := NewView(sn, lat, privilege.Public, plus.ModeSurrogate)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PutObject(plus.Object{ID: "z", Kind: plus.Data, Name: "z"}); err != nil {
		t.Fatal(err)
	}
	sn2, _ := b.Snapshot()
	if _, _, ok := v.Advance(sn2); !ok {
		t.Fatal("first advance refused")
	}
	if _, _, ok := v.Advance(sn2); ok {
		t.Fatal("second advance from the same view must refuse: spec was consumed")
	}
}

// TestEngineAdvanceStats checks the engine serves repeated queries across
// writes by advancing views rather than rebuilding them.
func TestEngineAdvanceStats(t *testing.T) {
	b := exampleBackend(t)
	e := NewEngine(b, privilege.TwoLevel())
	q := `node(X), kind(X, data)`
	if _, err := e.Query(q, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("w%d", i)
		if err := b.PutObject(plus.Object{ID: id, Kind: plus.Data, Name: id}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Query(q, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.FullBuilds != 1 {
		t.Errorf("full builds = %d, want 1 (only the cold start)", st.FullBuilds)
	}
	if st.Advanced != 10 {
		t.Errorf("advanced = %d, want 10", st.Advanced)
	}
	if st.Views != 1 {
		t.Errorf("cached views = %d, want 1", st.Views)
	}

	// With incremental refresh off, every write forces a full build.
	e2 := NewEngine(exampleBackend(t), privilege.TwoLevel())
	e2.SetIncremental(false)
	if _, err := e2.Query(q, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := e2.store.PutObject(plus.Object{ID: "w", Kind: plus.Data, Name: "w"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Query(q, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := e2.CacheStats(); st.FullBuilds != 2 || st.Advanced != 0 {
		t.Errorf("non-incremental stats = %+v, want 2 full builds", st)
	}
}

// TestEngineAdvanceKeepsOtherViewersViews: a write followed by queries
// from two viewers advances both viewers' views; caching one viewer's
// advanced view must not evict the other's older view.
func TestEngineAdvanceKeepsOtherViewersViews(t *testing.T) {
	b := exampleBackend(t)
	e := NewEngine(b, privilege.TwoLevel())
	q := `node(X), kind(X, data)`
	viewers := []privilege.Predicate{privilege.Public, "Protected"}
	for _, v := range viewers {
		if _, err := e.Query(q, Options{Viewer: v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.PutObject(plus.Object{ID: "w", Kind: plus.Data, Name: "w"}); err != nil {
		t.Fatal(err)
	}
	for _, v := range viewers {
		if _, err := e.Query(q, Options{Viewer: v}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.Advanced != 2 || st.FullBuilds != 2 {
		t.Errorf("stats = %+v, want 2 advances and only the 2 cold full builds", st)
	}
	if st.Views != 2 {
		t.Errorf("cached views = %d, want one per viewer", st.Views)
	}
}

// TestEngineAdvanceConcurrent interleaves writers with query goroutines
// for two viewers, so view advances race with queries holding the old
// views (exercised under -race in CI).
func TestEngineAdvanceConcurrent(t *testing.T) {
	b := exampleBackend(t)
	e := NewEngine(b, privilege.TwoLevel())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 30; i++ {
			id := fmt.Sprintf("c%d", i)
			batch := plus.Batch{
				Objects: []plus.Object{{ID: id, Kind: plus.Data, Name: id}},
				Edges:   []plus.Edge{{From: "b", To: id, Label: "input-to"}},
			}
			if _, err := b.Apply(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			viewer := privilege.Public
			if g%2 == 0 {
				viewer = "Protected"
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Query(`descendant*(X, "b")`, Options{Viewer: viewer}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Converge: the final answer matches a fresh engine's.
	rs, err := e.Query(`descendant*(X, "b")`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(b, privilege.TwoLevel()).Query(`descendant*(X, "b")`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != len(fresh.Rows) || len(rs.Rows) != 30 {
		t.Errorf("converged rows = %d, fresh = %d, want 30", len(rs.Rows), len(fresh.Rows))
	}
}

// TestEngineAdvanceTooFarBehind drives more writes than the mem backend's
// change ring retains: the advance falls back to a full build and answers
// stay correct.
func TestEngineAdvanceTooFarBehind(t *testing.T) {
	b := plus.NewMemBackend()
	t.Cleanup(func() { b.Close() })
	b.SetChangeHorizon(2)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("s%d", i)
		if err := b.PutObject(plus.Object{ID: id, Kind: plus.Data, Name: id}); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(b, privilege.TwoLevel())
	q := `node(X)`
	rs, err := e.Query(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rs.Rows))
	}
	// Burst far past the per-shard horizon.
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("t%d", i)
		if err := b.PutObject(plus.Object{ID: id, Kind: plus.Data, Name: id}); err != nil {
			t.Fatal(err)
		}
	}
	rs, err = e.Query(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 43 {
		t.Fatalf("rows after burst = %d, want 43", len(rs.Rows))
	}
	st := e.CacheStats()
	if st.Fallbacks == 0 || st.FullBuilds != 2 {
		t.Errorf("stats = %+v, want a fallback and 2 full builds", st)
	}
}
