package plusql

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/plus"
	"repro/internal/privilege"
)

// clientError marks evaluation failures the caller caused (bad viewer or
// mode), as opposed to backend/materialisation faults; the HTTP layer
// maps the former to 400 and the latter to 5xx.
type clientError struct{ err error }

func (e clientError) Error() string { return e.err.Error() }
func (e clientError) Unwrap() error { return e.err }

// IsClientError reports whether err was caused by the request itself
// (syntax, unknown viewer, unknown mode) rather than by the server.
func IsClientError(err error) bool {
	var pe *ParseError
	var ce clientError
	return errors.As(err, &pe) || errors.As(err, &ce)
}

// Options tune one query evaluation.
type Options struct {
	// Viewer is the consumer's privilege-predicate; empty means Public.
	Viewer privilege.Predicate
	// Mode picks the protection generator backing the view: surrogate
	// (default) or hide.
	Mode plus.Mode
	// MaxRows caps the result size regardless of the query's own limit
	// (0 = no cap); servers use it to bound response bodies.
	MaxRows int
	// Naive disables atom reordering and predicate pushdown, evaluating
	// the query by scan-and-filter in source order. A benchmarking and
	// debugging knob, not a serving mode.
	Naive bool
	// Explain attaches the executed plan's rendering to the result.
	Explain bool
}

// Engine compiles and runs PLUSQL queries against a storage backend.
// Each evaluation pins one immutable Backend.Snapshot — no store lock is
// held at any point — and runs against the cached protected view for
// (snapshot revision, viewer, mode), so repeated queries by the same
// class of consumer share the account materialisation. Engine is safe
// for concurrent use.
//
// The whole-snapshot view is what makes arbitrary conjunctive queries
// policy-sound without per-binding checks. A write no longer discards it:
// the engine pulls the change-feed delta between the cached view's
// revision and the current one and advances the view in place
// (View.Advance) — the dirty region of the account is regenerated, the
// scan indexes are patched, and only intersecting reachability memos are
// dropped. A full rebuild happens only when the delta cannot be
// localised (protection changes, completion-sweep vetoes) or the backend
// no longer retains the revision window.
type Engine struct {
	store   plus.Backend
	lattice *privilege.Lattice

	mu          sync.Mutex
	views       map[viewKey]*View
	incremental bool
	stats       ViewCacheStats

	// obsHooks holds the engine's telemetry handles (SetObservability);
	// nil means uninstrumented. Atomic so wiring it after construction is
	// safe while queries are in flight.
	obsHooks atomic.Pointer[queryObs]
}

// ViewCacheStats reports the protected-view cache counters.
type ViewCacheStats struct {
	// Views is the live cached view count.
	Views int `json:"views"`
	// Hits / Misses count view lookups by (revision, viewer, mode).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Advanced counts views refreshed by patching the delta's dirty
	// region; AdvanceRebuilds counts advances where the spec moved
	// incrementally but the account had to be regenerated.
	Advanced        uint64 `json:"advanced"`
	AdvanceRebuilds uint64 `json:"advanceRebuilds"`
	// FullBuilds counts views built from scratch off a snapshot;
	// Fallbacks counts advance attempts abandoned (feed too far behind,
	// spec already consumed by a concurrent advance).
	FullBuilds uint64 `json:"fullBuilds"`
	Fallbacks  uint64 `json:"fallbacks"`
}

type viewKey struct {
	rev    uint64
	viewer privilege.Predicate
	mode   plus.Mode
}

// NewEngine binds a backend to the lattice its privilege nicknames refer
// to.
func NewEngine(store plus.Backend, lattice *privilege.Lattice) *Engine {
	return &Engine{store: store, lattice: lattice, views: map[viewKey]*View{}, incremental: true}
}

// Lattice returns the engine's privilege lattice.
func (e *Engine) Lattice() *privilege.Lattice { return e.lattice }

// SetIncremental toggles delta-scoped view refresh (on by default); off
// forces every revision bump to rebuild views from a snapshot. A
// benchmarking knob, not a serving mode.
func (e *Engine) SetIncremental(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.incremental = on
}

// CacheStats reports the view-cache counters.
func (e *Engine) CacheStats() ViewCacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Views = len(e.views)
	return st
}

// view returns the cached protected view for (current revision, viewer,
// mode) and whether it was a cache hit. On miss it first tries to
// advance the newest cached view of the same (viewer, mode) by the
// change-feed delta, then falls back to a full build from the snapshot;
// older views of the same (viewer, mode) are evicted.
func (e *Engine) view(viewer privilege.Predicate, mode plus.Mode) (*View, bool, error) {
	sn, err := e.store.Snapshot()
	if err != nil {
		return nil, false, err
	}
	key := viewKey{rev: sn.Revision(), viewer: viewer, mode: mode}
	e.mu.Lock()
	if v, ok := e.views[key]; ok {
		e.stats.Hits++
		e.mu.Unlock()
		return v, true, nil
	}
	e.stats.Misses++
	var prev *View
	if e.incremental {
		var prevRev uint64
		for k, cand := range e.views {
			if k.viewer == viewer && k.mode == mode && k.rev < key.rev && (prev == nil || k.rev > prevRev) {
				prev, prevRev = cand, k.rev
			}
		}
	}
	e.mu.Unlock()

	if prev != nil {
		if nv, info, ok := prev.Advance(sn); ok {
			e.mu.Lock()
			if info.AccountRebuilt {
				e.stats.AdvanceRebuilds++
			} else {
				e.stats.Advanced++
			}
			nv = e.cache(key, nv)
			e.mu.Unlock()
			return nv, false, nil
		}
		e.mu.Lock()
		e.stats.Fallbacks++
		e.mu.Unlock()
	}

	v, err := NewView(sn, e.lattice, viewer, mode)
	if err != nil {
		return nil, false, err
	}
	e.mu.Lock()
	e.stats.FullBuilds++
	v = e.cache(key, v)
	e.mu.Unlock()
	return v, false, nil
}

// cache installs a freshly built or advanced view, keeping whichever view
// won a concurrent race so callers share one closure memo, and never
// letting a slow build for an old revision evict or displace a newer view
// of the same (viewer, mode). Views of other viewers and modes are left
// alone: each keeps its newest view, which its next query advances.
// Callers must hold e.mu.
func (e *Engine) cache(key viewKey, v *View) *View {
	if won, ok := e.views[key]; ok {
		return won
	}
	for k := range e.views {
		if k.viewer == key.viewer && k.mode == key.mode && k.rev > key.rev {
			// Stale build: serve it to this caller but don't cache it.
			return v
		}
	}
	for k := range e.views {
		if k.viewer == key.viewer && k.mode == key.mode {
			delete(e.views, k)
		}
	}
	e.views[key] = v
	return v
}

// Query parses, plans and executes one PLUSQL query.
func (e *Engine) Query(src string, opts Options) (*ResultSet, error) {
	return e.QueryContext(context.Background(), src, opts)
}

// QueryContext is Query with cancellation and deadline propagation: the
// context is checked before the (possibly expensive) protected-view
// materialisation and periodically inside the executor's join loop.
func (e *Engine) QueryContext(ctx context.Context, src string, opts Options) (*ResultSet, error) {
	t0 := time.Now()
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.runTimed(ctx, q, opts, src, time.Since(t0))
}

// Run plans and executes an already-parsed query.
func (e *Engine) Run(q *Query, opts Options) (*ResultSet, error) {
	return e.RunContext(context.Background(), q, opts)
}

// RunContext is Run with cancellation; see QueryContext.
func (e *Engine) RunContext(ctx context.Context, q *Query, opts Options) (*ResultSet, error) {
	return e.runTimed(ctx, q, opts, "", 0)
}

// runTimed evaluates a parsed query, timing each phase; src is the
// original source text when the caller parsed it here ("" for
// pre-parsed queries, re-rendered only if the slow-query log wants it).
func (e *Engine) runTimed(ctx context.Context, q *Query, opts Options, src string, parseD time.Duration) (*ResultSet, error) {
	t0 := time.Now()
	viewer := opts.Viewer
	if viewer == "" {
		viewer = privilege.Public
	}
	mode := opts.Mode
	if mode == "" {
		mode = plus.ModeSurrogate
	}
	if mode != plus.ModeSurrogate && mode != plus.ModeHide {
		return nil, clientError{fmt.Errorf("plusql: unknown mode %q", mode)}
	}
	if !e.lattice.Known(viewer) {
		return nil, clientError{fmt.Errorf("plusql: unknown viewer predicate %q", viewer)}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plusql: %w", err)
	}
	tView := time.Now()
	v, hit, err := e.view(viewer, mode)
	if err != nil {
		return nil, err
	}
	viewD := time.Since(tView)
	tPlan := time.Now()
	plan, err := Compile(q, ViewStats(v), opts.Naive)
	if err != nil {
		return nil, err
	}
	planD := time.Since(tPlan)
	tExec := time.Now()
	rs, err := run(ctx, plan, v, opts.MaxRows)
	if err != nil {
		return nil, err
	}
	t := queryTiming{
		parse:   parseD,
		view:    viewD,
		plan:    planD,
		exec:    time.Since(tExec),
		total:   parseD + time.Since(t0),
		viewHit: hit,
		rows:    rs.Stats.Rows,
	}
	rs.Phases = t.phases()
	if opts.Explain {
		rs.Plan = plan.Explain()
	}
	if e.obsHooks.Load() != nil {
		if src == "" {
			src = q.String()
		}
		e.observe(ctx, src, string(viewer), t)
	}
	return rs, nil
}
