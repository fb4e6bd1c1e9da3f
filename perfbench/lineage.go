package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/plus"
	"repro/internal/privilege"
	"repro/pkg/plusclient"
)

// The lineage_pipeline store: pipelines of steps, each step an
// invocation consuming the previous step's output and a fresh side
// input. Tail answers are about 3*depth nodes, big enough that the §4.1
// utilities dominate a cache miss; the store stays small, so snapshot
// clones stay negligible.
const (
	pipelines     = 4
	pipelineDepth = 150
	protectEvery  = 10  // every tenth step's invocation is Protected, with a surrogate
	hideEvery     = 5   // about one Public request in hideEvery uses hide mode
	tailSkew      = 3.0 // Zipf exponent of the start's distance from the tail
	// lineageWriteEvery: one op in this many appends a step to a tail. A
	// write costs about four misses (each viewer and mode re-asks the new
	// tail, and the evicted old one). At one write in 20, misses and the
	// hits they slow down put the median right on the edge between fast
	// and slow hits, and it swung by a quarter from run to run; at one
	// in 40 the median is a fast hit.
	lineageWriteEvery = 40
)

func pipelineNode(p int, role string, i int) string {
	if i < 0 {
		return fmt.Sprintf("p%d.src", p)
	}
	return fmt.Sprintf("p%d.%s%d", p, role, i)
}

// stepBatch is step i of pipeline p: side input and invocation feeding
// the step's output.
func stepBatch(p, i int) plus.Batch {
	side, inv, out := pipelineNode(p, "side", i), pipelineNode(p, "inv", i), pipelineNode(p, "out", i)
	feat := map[string]string{"pipeline": fmt.Sprintf("p%d", p), "step": fmt.Sprint(i)}
	invObj := plus.Object{ID: inv, Kind: plus.Invocation, Name: "step", Features: feat}
	var b plus.Batch
	if i%protectEvery == protectEvery-1 {
		invObj.Lowest, invObj.Protect = string(protectedViewer), string(plus.ModeSurrogate)
		b.Surrogates = []plus.SurrogateSpec{{ForID: inv, ID: inv + "~", Name: "redacted step", InfoScore: 0.5}}
	}
	b.Objects = []plus.Object{
		{ID: side, Kind: plus.Data, Name: "side input", Features: feat},
		invObj,
		{ID: out, Kind: plus.Data, Name: "output", Features: feat},
	}
	b.Edges = []plus.Edge{
		{From: pipelineNode(p, "out", i-1), To: inv, Label: "input-to"},
		{From: side, To: inv, Label: "input-to"},
		{From: inv, To: out, Label: "generated"},
	}
	return b
}

// tails tracks how many steps each pipeline has; only a pipeline's
// owning client appends to it.
type tails struct {
	mu    sync.Mutex
	steps [pipelines]int
}

func (t *tails) get(p int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.steps[p]
}

func (t *tails) grow(p int) {
	t.mu.Lock()
	t.steps[p]++
	t.mu.Unlock()
}

func runLineagePipeline(r *run) error {
	var tl *tails
	err := r.setup(func(st *stack) error {
		tl = &tails{}
		r.protected.reset()
		c, _, err := st.client(string(protectedViewer))
		if err != nil {
			return err
		}
		for p := 0; p < pipelines; p++ {
			b := plus.Batch{Objects: []plus.Object{{ID: pipelineNode(p, "", -1), Kind: plus.Data, Name: "source"}}}
			for i := 0; i < pipelineDepth; i++ {
				s := stepBatch(p, i)
				b.Objects = append(b.Objects, s.Objects...)
				b.Edges = append(b.Edges, s.Edges...)
				b.Surrogates = append(b.Surrogates, s.Surrogates...)
			}
			if _, err := c.Batch(context.Background(), plusclient.BatchRequest{Objects: b.Objects, Edges: b.Edges, Surrogates: b.Surrogates}); err != nil {
				return fmt.Errorf("seed pipeline %d: %w", p, err)
			}
			r.protected.add(b.Objects)
			tl.steps[p] = pipelineDepth
		}
		// Serving starts with the lineage cache warm: every tail asked
		// once per viewer and mode the loop uses.
		for _, vm := range [][2]string{
			{string(privilege.Public), string(plus.ModeSurrogate)},
			{string(privilege.Public), string(plus.ModeHide)},
			{string(protectedViewer), string(plus.ModeSurrogate)},
		} {
			vc, _, err := st.client(vm[0])
			if err != nil {
				return err
			}
			for p := 0; p < pipelines; p++ {
				q := plusclient.LineageRequest{Start: pipelineNode(p, "out", pipelineDepth-1), Mode: vm[1]}
				if _, err := vc.Lineage(context.Background(), q); err != nil {
					return fmt.Errorf("warm the %s %s tail of pipeline %d: %w", vm[0], vm[1], p, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	viewers := []string{string(privilege.Public), string(protectedViewer)}
	var clients []*client
	for i := 0; i < r.clients; i++ {
		cl, err := r.newClient(i, viewers[i])
		if err != nil {
			return err
		}
		clients = append(clients, cl)
	}
	r.describe(len(clients), fmt.Sprintf("1/%d", lineageWriteEvery), fmt.Sprintf(
		"%d pipelines x %d steps, viewers %v, Public hide mode ~1 request in %d, start Zipf(%.1f) from the tail",
		pipelines, pipelineDepth, viewers[:len(clients)], hideEvery, tailSkew))
	r.storeLine("before")
	if err := r.specAndGenerate(); err != nil {
		return err
	}
	r.probe(clients[0], nil, pipelineQueries)

	zipfs := make([]*rand.Zipf, len(clients))
	for i, cl := range clients {
		zipfs[i] = rand.NewZipf(cl.rng, tailSkew, 1, pipelineDepth-1)
	}
	r.loop(clients, func(cl *client, n int, traced bool) {
		if n%lineageWriteEvery == lineageWriteEvery-1 {
			// Each client appends to its own pipelines, in turn.
			owned := (pipelines + r.clients - 1 - cl.id) / r.clients
			p := cl.id + r.clients*((n/lineageWriteEvery)%owned)
			b := stepBatch(p, tl.get(p))
			r.protected.add(b.Objects)
			r.batchOp(cl, b, &r.writes, traced)
			tl.grow(p)
			return
		}
		p := cl.rng.Intn(pipelines)
		pos := tl.get(p) - 1 - int(zipfs[cl.id].Uint64())
		if pos < 0 {
			pos = 0
		}
		mode := string(plus.ModeSurrogate)
		if cl.viewer == string(privilege.Public) && cl.rng.Intn(hideEvery) == 0 {
			mode = string(plus.ModeHide)
		}
		r.lineageOp(cl, plusclient.LineageRequest{Start: pipelineNode(p, "out", pos), Mode: mode}, r.statsFor(traced), traced, "lineage")
	})
	r.finish()
	r.storeLine("after")

	// Sampled answers stay small (steps 10-29, crossing at least one
	// Protected step): VerifyMaximal is quadratic in the answer.
	for _, cl := range clients {
		modes := []string{string(plus.ModeSurrogate)}
		if cl.viewer == string(privilege.Public) {
			modes = append(modes, string(plus.ModeHide))
		}
		for _, mode := range modes {
			r.checkSampledLineage(cl, pipelineNode(cl.rng.Intn(pipelines), "out", 10+cl.rng.Intn(20)), mode)
		}
		r.checkPanel(cl, pipelineQueries)
	}
	r.checkFollower()
	return nil
}

// pipelineQueries are the PLUSQL queries a traced run probes the
// pipeline store with, and the panel checked against the naive
// evaluator at the end of every run.
var pipelineQueries = []string{
	`kind(X, invocation), attr(X, "pipeline", "p1")`,
	`ancestor*(X, "p0.out20"), kind(X, data)`,
	`name(X, "redacted step")`,
	`attr(X, "step", "42")`,
	`surrogate(X)`,
}
