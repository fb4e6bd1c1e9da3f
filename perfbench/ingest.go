package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/plus"
	"repro/internal/privilege"
	"repro/internal/workload"
	"repro/pkg/plusclient"
)

const (
	ingestBatchObjects = 64      // objects per posted batch (~380 records with their edges)
	ingestSeedBatches  = 64      // batches of the stream ingested during set-up, as one request
	ingestStreamNodes  = 1 << 22 // the stream's nominal size; runs stop far earlier
)

// largeStream produces GenerateLarge batches one at a time from its own
// goroutine, so a run takes as many as its time allows.
type largeStream struct {
	ch   chan plus.Batch
	stop chan struct{}
	done chan struct{}
}

var errStreamStopped = errors.New("stream stopped")

func newLargeStream(seed int64) *largeStream {
	s := &largeStream{ch: make(chan plus.Batch), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer close(s.ch)
		_ = workload.GenerateLarge(workload.LargeConfig{Nodes: ingestStreamNodes, Seed: seed, BatchSize: ingestBatchObjects},
			func(b plus.Batch) error {
				select {
				case s.ch <- b:
					return nil
				case <-s.stop:
					return errStreamStopped
				}
			})
	}()
	return s
}

// next returns the next batch (an empty one once the stream is spent).
func (s *largeStream) next() plus.Batch { return <-s.ch }

// close stops the generator and waits for it.
func (s *largeStream) close() {
	close(s.stop)
	<-s.done
}

func runIngestFollow(r *run) error {
	var gen *largeStream
	defer func() {
		if gen != nil {
			gen.close()
		}
	}()
	err := r.setup(func(st *stack) error {
		if gen != nil {
			gen.close()
		}
		gen = newLargeStream(r.seed)
		r.protected.reset()
		c, _, err := st.client(string(protectedViewer))
		if err != nil {
			return err
		}
		var seed plus.Batch
		for i := 0; i < ingestSeedBatches; i++ {
			b := gen.next()
			seed.Objects = append(seed.Objects, b.Objects...)
			seed.Edges = append(seed.Edges, b.Edges...)
			seed.Surrogates = append(seed.Surrogates, b.Surrogates...)
		}
		r.protected.add(seed.Objects)
		if _, err := c.Batch(context.Background(), plusclient.BatchRequest{Objects: seed.Objects, Edges: seed.Edges, Surrogates: seed.Surrogates}); err != nil {
			return fmt.Errorf("seed the store: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	cl, err := r.newClient(0, string(privilege.Public))
	if err != nil {
		return err
	}
	r.describe(1, "1/1", fmt.Sprintf("GenerateLarge batches of %d objects, store seeded with %d objects",
		ingestBatchObjects, ingestSeedBatches*ingestBatchObjects))
	r.storeLine("before")
	if err := r.specAndGenerate(); err != nil {
		return err
	}
	seeded := ingestSeedBatches * ingestBatchObjects
	prng := rand.New(rand.NewSource(r.seed))
	var starts, queries []string
	for i := 0; i < 5; i++ {
		starts = append(starts, workload.LargeNodeID(prng.Intn(seeded)))
		queries = append(queries, largeQuery(prng, seeded/4))
	}
	r.probe(cl, starts, queries)

	r.loop([]*client{cl}, func(cl *client, n int, traced bool) {
		b := gen.next()
		if b.Len() == 0 {
			r.fail("the ingest stream ran dry")
			return
		}
		r.protected.add(b.Objects)
		r.batchOp(cl, b, r.statsFor(traced), traced)
	})
	r.finish()
	r.storeLine("after")
	r.checkFollower()
	return nil
}
