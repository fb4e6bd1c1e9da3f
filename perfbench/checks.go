package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/pkg/plusclient"
)

// protectedViewer is the upper predicate of the two-level lattice plusd
// serves by default.
const protectedViewer = privilege.Predicate("Protected")

func privilegeOf(viewer string) privilege.Predicate { return privilege.Predicate(viewer) }

func modeOf(mode string) plus.Mode {
	if mode == "" {
		return plus.ModeSurrogate
	}
	return plus.Mode(mode)
}

// protectedSet holds the ids of every object stored above Public; the
// loops add to it as they write.
type protectedSet struct {
	mu  sync.RWMutex
	ids map[string]bool
}

// reset empties the set for a fresh set-up.
func (p *protectedSet) reset() {
	p.mu.Lock()
	p.ids = nil
	p.mu.Unlock()
}

func (p *protectedSet) add(objects []plus.Object) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ids == nil {
		p.ids = map[string]bool{}
	}
	for _, o := range objects {
		if o.Lowest != "" && o.Lowest != string(privilege.Public) {
			p.ids[o.ID] = true
		}
	}
}

func (p *protectedSet) has(id string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.ids[id]
}

// checkLineage fails the run when a Public answer shows a Protected
// original node, in either protection mode.
func (r *run) checkLineage(cl *client, resp *plus.LineageResponse) {
	if cl.viewer != string(privilege.Public) {
		return
	}
	for _, n := range resp.Nodes {
		if !n.Surrogate && r.protected.has(n.ID) {
			r.fail("Public %s lineage of %s shows protected node %s", resp.Mode, resp.Start, n.ID)
			return
		}
	}
}

// checkQueryRows fails the run when a Public PLUSQL row binds a
// Protected original node.
func (r *run) checkQueryRows(cl *client, resp *plusql.QueryResponse) {
	if cl.viewer != string(privilege.Public) {
		return
	}
	for _, row := range resp.Rows {
		for _, b := range row {
			if !b.Surrogate && r.protected.has(b.ID) {
				r.fail("Public query %q binds protected node %s", resp.Query, b.ID)
				return
			}
		}
	}
}

// checkSampledLineage asks for one answer as the client's viewer and
// checks it against the same question answered in-process: the served
// nodes and edges must be the account's, and the account must pass
// account.VerifySound and account.VerifyMaximal on its spec.
func (r *run) checkSampledLineage(cl *client, start, mode string) {
	resp, err := cl.c.Lineage(context.Background(), plusclient.LineageRequest{Start: start, Mode: mode})
	if err != nil {
		r.fail("sampled %s lineage of %s: %v", cl.viewer, start, err)
		return
	}
	r.checkLineage(cl, resp)
	res, err := plus.NewEngine(r.st.backend, r.st.lat).LineageContext(context.Background(), plus.Request{
		Start: start, Direction: graph.Backward, Viewer: privilegeOf(cl.viewer), Mode: modeOf(mode),
	})
	if err != nil {
		r.fail("in-process lineage of %s: %v", start, err)
		return
	}
	if err := account.VerifySound(res.Spec, res.Account); err != nil {
		r.fail("%s %s answer for %s is not sound: %v", cl.viewer, mode, start, err)
	}
	// Hide mode is the all-or-nothing account (Figure 1c): sound, but
	// maximal by construction only in surrogate mode.
	if modeOf(mode) == plus.ModeSurrogate {
		if err := account.VerifyMaximal(res.Spec, res.Account); err != nil {
			r.fail("%s %s answer for %s is not maximal: %v", cl.viewer, mode, start, err)
		}
	}
	var served, want []string
	for _, n := range resp.Nodes {
		served = append(served, n.ID)
	}
	for _, e := range resp.Edges {
		served = append(served, e.From+">"+e.To)
	}
	for _, id := range res.Account.Graph.Nodes() {
		want = append(want, string(id))
	}
	for _, e := range res.Account.Graph.Edges() {
		want = append(want, string(e.From)+">"+string(e.To))
	}
	if !sameSet(served, want) {
		r.fail("%s %s answer for %s: served %d nodes+edges, the account has %d", cl.viewer, mode, start, len(served), len(want))
	}
	fmt.Printf("# check: %s %s lineage of %s (%d nodes) verified and served intact\n",
		cl.viewer, mode, start, len(resp.Nodes))
}

// checkPanel runs every panel query as the client's viewer through the
// server and in-process with the naive evaluator (no reordering, no
// pushdown, no storage indexes); the row sets must be equal.
func (r *run) checkPanel(cl *client, panel []string) {
	naive := plusql.NewEngine(r.st.backend, r.st.lat)
	t0 := time.Now()
	for _, q := range panel {
		resp, err := cl.c.Query(context.Background(), q, plusclient.QueryOptions{})
		if err != nil {
			r.fail("panel query %q as %s: %v", q, cl.viewer, err)
			continue
		}
		r.checkQueryRows(cl, resp)
		rs, err := naive.Query(q, plusql.Options{Viewer: privilegeOf(cl.viewer), Naive: true})
		if err != nil {
			r.fail("naive panel query %q as %s: %v", q, cl.viewer, err)
			continue
		}
		if !sameSet(rowKeys(resp.Rows), rowKeys(rs.Rows)) {
			r.fail("panel query %q as %s: %d served rows differ from the %d naive rows", q, cl.viewer, len(resp.Rows), len(rs.Rows))
		}
	}
	fmt.Printf("# check: %d panel queries as %s match the naive evaluator (%.2f s)\n", len(panel), cl.viewer, time.Since(t0).Seconds())
}

func rowKeys(rows [][]plusql.Binding) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		ids := make([]string, len(row))
		for j, b := range row {
			ids[j] = b.Var + "=" + b.ID
		}
		out[i] = strings.Join(ids, ",")
	}
	return out
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkFollower fails the run when the follower's counts differ from
// the primary's once it has applied every acknowledged write.
func (r *run) checkFollower() {
	if err := r.st.checkFollowerParity(); err != nil {
		r.fail("%v", err)
		return
	}
	fmt.Println("# check: follower object, edge and surrogate counts equal the primary's")
}

// specAndGenerate times, in a traced run, one plus.SpecFromSnapshot and
// one account.Generate over the set-up snapshot.
func (r *run) specAndGenerate() error {
	if r.tr == nil {
		return nil
	}
	sn, err := r.st.backend.Snapshot()
	if err != nil {
		return err
	}
	t0 := time.Now()
	spec, err := plus.SpecFromSnapshot(sn, r.st.lat)
	t1 := time.Now()
	if err != nil {
		return err
	}
	if _, err := account.Generate(spec, privilege.Public); err != nil {
		return err
	}
	r.addLayer("account.spec_build_ms", ms(t1.Sub(t0)))
	r.addLayer("account.generate_ms", ms(time.Since(t1)))
	return nil
}
