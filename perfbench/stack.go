package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/internal/replica"
	"repro/pkg/plusclient"
)

// stack is one primary assembled the way cmd/plusd assembles it by
// default — log backend without fsync (-sync=false), the observed
// backend decorator over a live metric registry, the cache-fronted
// lineage engine, PLUSQL attached, and required auth over an HMAC
// keyring — served on loopback HTTP, plus one in-process follower
// replicating it onto its own log backend with plusd's follower defaults
// (flush on sync, no coalesce, cursor sidecar next to the log).
type stack struct {
	raw     *plus.LogBackend
	backend plus.Backend // raw behind plus.ObserveBackend, as plusd serves it
	reg     *obs.Registry
	lat     *privilege.Lattice
	keyring *plus.Keyring
	lineage *plus.CachedEngine
	query   *plusql.Engine
	url     string
	srv     *http.Server
	serveWG sync.WaitGroup

	followRaw *plus.LogBackend
	rep       *replica.Replica
	lag       *lagWatcher
	stopRep   context.CancelFunc
	repWG     sync.WaitGroup
}

// newStack opens a primary in dir and starts serving it.
func newStack(dir string) (*stack, error) {
	raw, err := plus.Open(filepath.Join(dir, "primary.log"), plus.Options{Sync: false})
	if err != nil {
		return nil, err
	}
	kr, err := plus.NewKeyring(plus.Key{ID: "bench", Secret: []byte("perfbench-loopback-signing-key")})
	if err != nil {
		raw.Close()
		return nil, err
	}
	reg := obs.NewRegistry()
	backend := plus.NewObserveBackend(raw, reg)
	lat := privilege.TwoLevel()
	lineage := plus.NewCachedEngine(plus.NewEngine(backend, lat))
	srv := plus.NewCachedServer(lineage,
		plus.WithAuth(plus.AuthConfig{Keyring: kr, Require: true}),
		plus.WithObservability(plus.NewObservability(reg, nil, nil)))
	query := plusql.NewEngine(backend, lat)
	plusql.Attach(srv, query)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		raw.Close()
		return nil, err
	}
	s := &stack{
		raw: raw, backend: backend, reg: reg, lat: lat, keyring: kr,
		lineage: lineage, query: query,
		url: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: srv},
	}
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// token mints a session token for viewer with caps.
func (s *stack) token(viewer string, caps ...plus.Capability) (string, error) {
	now := time.Now()
	return s.keyring.Mint(plus.Claims{
		Viewer: viewer, Capabilities: caps,
		IssuedAt: now.Unix(), ExpiresAt: now.Add(time.Hour).Unix(),
	})
}

// client is one load client: its own transport, so the closed loop
// holds exactly one keep-alive connection, and its own minted session.
func (s *stack) client(viewer string) (*plusclient.Client, string, error) {
	tok, err := s.token(viewer, plus.CapQuery, plus.CapIngest)
	if err != nil {
		return nil, "", err
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	return plusclient.New(s.url, plusclient.WithHTTPClient(hc), plusclient.WithToken(tok)), tok, nil
}

// follow bootstraps the follower from the primary's snapshot and starts
// its apply loop and the lag watcher.
func (s *stack) follow(dir string) error {
	fraw, err := plus.Open(filepath.Join(dir, "follower.log"), plus.Options{Sync: false})
	if err != nil {
		return err
	}
	tok, err := s.token(string(privilege.Public), plus.CapReplicate)
	if err != nil {
		fraw.Close()
		return err
	}
	fbackend := plus.NewObserveBackend(fraw, obs.NewRegistry())
	rep, err := replica.New(replica.Config{
		Primary:   s.url,
		Token:     tok,
		Backend:   fbackend,
		StatePath: replica.DefaultStatePath(filepath.Join(dir, "follower.log")),
	})
	if err != nil {
		fraw.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := rep.Start(ctx); err != nil {
		cancel()
		fraw.Close()
		return err
	}
	s.followRaw, s.rep, s.stopRep = fraw, rep, cancel
	s.lag = newLagWatcher(rep, fraw)
	s.repWG.Add(2)
	go func() {
		defer s.repWG.Done()
		_ = rep.Run(ctx) // returns nil once ctx ends; divergence shows in the parity check
	}()
	go func() {
		defer s.repWG.Done()
		s.lag.run(ctx)
	}()
	return nil
}

// close stops the follower, the server and both backends, and waits for
// every goroutine it started.
func (s *stack) close() {
	if s.stopRep != nil {
		s.stopRep()
		s.repWG.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	s.serveWG.Wait()
	if s.followRaw != nil {
		s.followRaw.Close()
	}
	s.raw.Close()
}

// lagWatcher stamps the moment the follower's applied revision reaches
// each acknowledged write: it arms the follower backend's Notify and
// re-reads Replica.Health().AppliedRev on every wakeup.
type lagWatcher struct {
	rep *replica.Replica
	fb  plus.Backend

	mu      sync.Mutex
	pending []pendingWrite // ascending rev
	lags    []time.Duration
}

type pendingWrite struct {
	rev  uint64
	sent time.Time
}

func newLagWatcher(rep *replica.Replica, fb plus.Backend) *lagWatcher {
	return &lagWatcher{rep: rep, fb: fb}
}

// expect registers an acknowledged write: its revision and when it was
// sent. The lag is measured from the send, so it is never negative even
// when the follower applies before the client has read the ack.
func (w *lagWatcher) expect(rev uint64, sent time.Time) {
	w.mu.Lock()
	w.pending = append(w.pending, pendingWrite{rev, sent})
	sort.Slice(w.pending, func(i, j int) bool { return w.pending[i].rev < w.pending[j].rev })
	w.mu.Unlock()
	w.sweep()
}

// sweep stamps every pending write the follower has applied.
func (w *lagWatcher) sweep() int {
	applied := w.rep.Health().AppliedRev
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	i := 0
	for ; i < len(w.pending) && w.pending[i].rev <= applied; i++ {
		w.lags = append(w.lags, now.Sub(w.pending[i].sent))
	}
	w.pending = w.pending[i:]
	return len(w.pending)
}

// run wakes on every follower apply. The replica publishes AppliedRev
// just after its Apply fires Notify, so while writes are pending a short
// timer re-checks instead of waiting for the next apply.
func (w *lagWatcher) run(ctx context.Context) {
	const recheck = 200 * time.Microsecond
	t := time.NewTimer(recheck)
	defer t.Stop()
	for {
		ch := w.fb.Notify()
		left := w.sweep()
		if left > 0 {
			t.Reset(recheck)
		}
		select {
		case <-ctx.Done():
			return
		case <-ch:
		case <-t.C:
		}
	}
}

// waitDrained blocks until every expected write has been stamped.
func (w *lagWatcher) waitDrained(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for w.sweep() > 0 {
		if time.Now().After(deadline) {
			return errors.New("follower did not apply every acknowledged write in time")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// samples returns the recorded lags.
func (w *lagWatcher) samples() []time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]time.Duration(nil), w.lags...)
}

// counts reports objects, edges and surrogates of a backend.
func counts(b plus.Backend) (objects, edges, surrogates int, err error) {
	sn, err := b.Snapshot()
	if err != nil {
		return 0, 0, 0, err
	}
	for _, o := range sn.Objects() {
		surrogates += len(sn.Surrogates(o.ID))
	}
	return b.NumObjects(), b.NumEdges(), surrogates, nil
}

// caughtUp waits until the follower has applied the primary's revision.
func (s *stack) caughtUp() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for s.rep.Health().AppliedRev < s.backend.Revision() {
		ch := s.followRaw.Notify()
		if s.rep.Health().AppliedRev >= s.backend.Revision() {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("follower catch-up: %w", ctx.Err())
		case <-ch:
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// checkFollowerParity waits for the follower to apply everything and
// compares its counts with the primary's.
func (s *stack) checkFollowerParity() error {
	if err := s.lag.waitDrained(30 * time.Second); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.rep.WaitCaughtUp(ctx); err != nil {
		return fmt.Errorf("follower catch-up: %w", err)
	}
	po, pe, ps, err := counts(s.backend)
	if err != nil {
		return err
	}
	fo, fe, fs, err := counts(s.followRaw)
	if err != nil {
		return err
	}
	if po != fo || pe != fe || ps != fs {
		return fmt.Errorf("follower parity: primary %d objects/%d edges/%d surrogates, follower %d/%d/%d",
			po, pe, ps, fo, fe, fs)
	}
	return nil
}
