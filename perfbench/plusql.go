package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/plus"
	"repro/internal/privilege"
	"repro/internal/workload"
	"repro/pkg/plusclient"
)

// The plusql_large store: a workload.GenerateLarge DAG. Its default
// pools give ~20 nodes per name, 1000 names, 100 owners, 10 stages and
// 1000 batch tags, and one Protected node with a surrogate per 1000.
const (
	largeNodes   = 20000
	largeNames   = largeNodes / 20
	largeOwners  = 100
	largeStages  = 10
	largeBatches = 1000
	// ancestorSpan bounds the ranks anchoring ancestor* queries: a node's
	// ancestors are drawn from lower ranks, so early anchors keep the
	// closure to a few hundred nodes.
	ancestorSpan = 1000
	// largeSetupBatch is the set-up's bulk batch size, in objects.
	largeSetupBatch = 512
	// largeWriteEvery: one op in this many is a one-object batch.
	largeWriteEvery = 20
)

// largeQuery draws a query: name, kind+attr and attr point queries, and
// ancestor*-anchored queries, bare or, one time in eight, filtered by
// name. The planner runs a filtered closure query from the indexed point
// scan, with one forward closure per candidate: about 20 closures for a
// name, tens to hundreds of milliseconds where the closure-first order
// takes well under one. That share keeps the plan in the mix without
// letting it crowd the reads after writes out of the tail. A kind or
// attr filter there means thousands of closures and seconds per query,
// which no run of this length can measure.
func largeQuery(rng *rand.Rand, anchors int) string {
	anchor := workload.LargeNodeID(anchors/10 + rng.Intn(anchors-anchors/10))
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf(`name(X, %q)`, workload.LargeName(rng.Intn(largeNames)))
	case 1:
		return fmt.Sprintf(`kind(X, invocation), attr(X, "owner", %q)`, workload.LargeOwner(rng.Intn(largeOwners)))
	case 2:
		return fmt.Sprintf(`attr(X, "batch", "b%05d")`, rng.Intn(largeBatches))
	default:
		if rng.Intn(8) != 0 {
			return fmt.Sprintf(`ancestor*(X, %q)`, anchor)
		}
		return fmt.Sprintf(`ancestor*(X, %q), name(X, %q)`, anchor, workload.LargeName(rng.Intn(largeNames)))
	}
}

// largeWrite is a one-object batch extending the DAG below two random
// nodes of the generated store.
func largeWrite(rng *rand.Rand, client, n, nodes int) plus.Batch {
	id := fmt.Sprintf("w%d.%07d", client, n)
	a := rng.Intn(nodes)
	b := (a + 1 + rng.Intn(nodes-1)) % nodes
	return plus.Batch{
		Objects: []plus.Object{{ID: id, Kind: plus.Data, Name: workload.LargeName(rng.Intn(largeNames)),
			Features: map[string]string{
				"owner": workload.LargeOwner(rng.Intn(largeOwners)),
				"stage": fmt.Sprintf("s%d", rng.Intn(largeStages)),
				"batch": fmt.Sprintf("b%05d", rng.Intn(largeBatches)),
			}}},
		Edges: []plus.Edge{
			{From: workload.LargeNodeID(a), To: id, Label: "input-to"},
			{From: workload.LargeNodeID(b), To: id, Label: "input-to"},
		},
	}
}

func runPlusqlLarge(r *run) error {
	viewers := []string{string(privilege.Public), string(protectedViewer)}
	err := r.setup(func(st *stack) error {
		r.protected.reset()
		c, _, err := st.client(string(protectedViewer))
		if err != nil {
			return err
		}
		err = workload.GenerateLarge(workload.LargeConfig{Nodes: largeNodes, Seed: r.seed, BatchSize: largeSetupBatch}, func(b plus.Batch) error {
			r.protected.add(b.Objects)
			_, err := c.Batch(context.Background(), plusclient.BatchRequest{Objects: b.Objects, Edges: b.Edges, Surrogates: b.Surrogates})
			return err
		})
		if err != nil {
			return fmt.Errorf("ingest the generated DAG: %w", err)
		}
		// Serving starts once each viewer's protected view is built: the
		// first query per viewer builds it from the whole snapshot.
		for _, v := range viewers {
			vc, _, err := st.client(v)
			if err != nil {
				return err
			}
			if _, err := vc.Query(context.Background(), `name(X, "warm-up")`, plusclient.QueryOptions{}); err != nil {
				return fmt.Errorf("build the %s view: %w", v, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var clients []*client
	for i := 0; i < r.clients; i++ {
		cl, err := r.newClient(i, viewers[i])
		if err != nil {
			return err
		}
		clients = append(clients, cl)
	}
	r.describe(len(clients), fmt.Sprintf("1/%d", largeWriteEvery), fmt.Sprintf(
		"GenerateLarge DAG of %d nodes, viewers %v, writes are one-object batches", largeNodes, viewers[:len(clients)]))
	r.storeLine("before")
	if err := r.specAndGenerate(); err != nil {
		return err
	}
	prng := rand.New(rand.NewSource(r.seed))
	var starts []string
	for i := 0; i < 5; i++ {
		starts = append(starts, workload.LargeNodeID(prng.Intn(largeNodes)))
	}
	r.probe(clients[0], starts, nil)

	r.loop(clients, func(cl *client, n int, traced bool) {
		if n%largeWriteEvery == largeWriteEvery-1 {
			r.batchOp(cl, largeWrite(cl.rng, cl.id, n, largeNodes), &r.writes, traced)
			return
		}
		r.queryOp(cl, largeQuery(cl.rng, ancestorSpan), r.statsFor(traced), traced, "query")
	})
	r.finish()
	r.storeLine("after")

	panel := make([]string, 0, 12)
	for len(panel) < cap(panel) {
		panel = append(panel, largeQuery(prng, ancestorSpan))
	}
	for _, cl := range clients {
		r.checkPanel(cl, panel)
	}
	r.checkFollower()
	return nil
}
