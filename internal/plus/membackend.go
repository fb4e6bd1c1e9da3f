package plus

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// MemBackend is the in-memory store core: the five record maps behind one
// RWMutex, one revision-ordered change window, a per-revision snapshot
// cache, the Notify broadcaster and the secondary index. On its own it is
// the volatile backend (contents die with the process, Size is 0).
// LogBackend adds durability underneath it: every write reaches the log
// through the core's persist hook before the core applies it. Lineage
// queries run over immutable revision-stamped snapshots, so traversal
// never blocks writers. It implements Backend.
type MemBackend struct {
	mu         sync.RWMutex
	objects    map[string]Object
	history    map[string][]Object // superseded versions, oldest first
	out        map[string][]Edge   // keyed by From
	in         map[string][]Edge   // keyed by To
	surrogates map[string][]SurrogateSpec
	edges      int

	// persist makes a validated batch durable before the core applies
	// it; nil for a volatile backend. It runs under the write lock, and
	// an error leaves the core untouched.
	persist func(b *Batch) error

	// revision increments on every applied record; engines use it to
	// invalidate cached protected accounts and snapshots when the store
	// changes. Atomic so the snapshot fast path never takes mu.
	revision atomic.Uint64

	// snap caches the last snapshot clone; valid while its revision
	// matches the store's. Readers hitting the cache never touch mu.
	snap atomic.Pointer[Snapshot]

	// changes is the bounded in-memory change feed: changes[i] was
	// applied at revision changesBase+i+1. Only a recent window is kept
	// resident — long-lived update-heavy stores would otherwise duplicate
	// their whole write history in memory. Requests past the window fail
	// with ErrTooFarBehind and callers rebuild from a snapshot.
	changes       []Change
	changesBase   uint64
	changeHorizon int

	// epoch identifies the revision numbering (Backend.Epoch): minted per
	// instance for a volatile backend, persisted and rotated by the log.
	// Guarded by mu.
	epoch string

	// notifier wakes change-feed followers on every applied mutation
	// (Backend.Notify); it has its own lock and never touches mu.
	notifier

	// idx is the lazily-maintained secondary index (kind/name/attr ->
	// ids); see index.go. It has its own lock and is advanced by query
	// probes, never by the write path.
	idx *backendIndex

	closed atomic.Bool
}

// DefaultChangeHorizon is how many recent changes a backend keeps
// resident for ChangesSince.
const DefaultChangeHorizon = 1 << 16

var _ Backend = (*MemBackend)(nil)

// NewMemBackend creates an empty volatile backend with a fresh epoch:
// contents die with the process, so a cursor from an earlier life must be
// refused, not resumed.
func NewMemBackend() *MemBackend { return newMemBackend(newEpoch()) }

func newMemBackend(epoch string) *MemBackend {
	return &MemBackend{
		objects:       map[string]Object{},
		history:       map[string][]Object{},
		out:           map[string][]Edge{},
		in:            map[string][]Edge{},
		surrogates:    map[string][]SurrogateSpec{},
		changeHorizon: DefaultChangeHorizon,
		epoch:         epoch,
		idx:           newBackendIndex(),
	}
}

// commit is the one write path. Under the write lock it refuses a closed
// backend, runs check (the caller's validation against current state),
// persists the batch, applies its typed records and wakes followers. It
// returns the revision after the batch's last record.
func (m *MemBackend) commit(b *Batch, check func() error) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return 0, ErrClosed
	}
	if err := check(); err != nil {
		return 0, err
	}
	if b.Len() == 0 {
		return m.revision.Load(), nil
	}
	if m.persist != nil {
		if err := m.persist(b); err != nil {
			return 0, err
		}
	}
	for _, o := range b.Objects {
		m.applyObject(o)
	}
	for _, e := range b.Edges {
		m.applyEdge(e)
	}
	for _, sp := range b.Surrogates {
		m.applySurrogate(sp)
	}
	m.broadcast()
	return m.revision.Load(), nil
}

// applyObject, applyEdge and applySurrogate fold one record into the
// maps and the change feed; callers hold the write lock (or own the
// backend exclusively, as log replay does).
func (m *MemBackend) applyObject(o Object) {
	o = internObject(o)
	c := Change{Kind: ChangeObject, Object: o}
	if prev, existed := m.objects[o.ID]; existed {
		h := append(m.history[o.ID], prev)
		m.history[o.ID] = h
		c.prev = &h[len(h)-1] // history entries are never modified
	}
	m.objects[o.ID] = o
	m.record(c)
}

func (m *MemBackend) applyEdge(e Edge) {
	e = internEdge(e)
	m.out[e.From] = append(m.out[e.From], e)
	m.in[e.To] = append(m.in[e.To], e)
	m.edges++
	m.record(Change{Kind: ChangeEdge, Edge: e})
}

func (m *MemBackend) applySurrogate(sp SurrogateSpec) {
	sp = internSurrogate(sp)
	m.surrogates[sp.ForID] = append(m.surrogates[sp.ForID], sp)
	m.record(Change{Kind: ChangeSurrogate, Surrogate: sp})
}

// record stamps c with the next revision and appends it to the change
// window, dropping the oldest retained changes once the window exceeds
// the horizon by half (the slack keeps the copy amortised O(1) per
// write).
func (m *MemBackend) record(c Change) {
	c.Rev = m.revision.Add(1)
	m.changes = append(m.changes, c)
	if h := m.changeHorizon; len(m.changes) > h+h/2 {
		m.dropChanges(len(m.changes) - h)
	}
}

func (m *MemBackend) dropChanges(n int) {
	m.changesBase += uint64(n)
	m.changes = append(m.changes[:0:0], m.changes[n:]...)
}

func (m *MemBackend) hasObject(id string) bool {
	_, ok := m.objects[id]
	return ok
}

func (m *MemBackend) hasEdge(from, to string) bool {
	for _, prev := range m.out[from] {
		if prev.To == to {
			return true
		}
	}
	return false
}

// PutObject stores (or replaces) a provenance object.
func (m *MemBackend) PutObject(o Object) error {
	_, err := m.commit(&Batch{Objects: []Object{o}}, func() error { return validateObject(o) })
	return err
}

// PutEdge stores a provenance edge; both endpoints must exist.
func (m *MemBackend) PutEdge(e Edge) error {
	_, err := m.commit(&Batch{Edges: []Edge{e}}, func() error {
		if !m.hasObject(e.From) {
			return fmt.Errorf("plus: edge %s->%s: %w (from)", e.From, e.To, ErrNotFound)
		}
		if !m.hasObject(e.To) {
			return fmt.Errorf("plus: edge %s->%s: %w (to)", e.From, e.To, ErrNotFound)
		}
		if e.From == e.To {
			return fmt.Errorf("plus: self edge %s rejected", e.From)
		}
		if m.hasEdge(e.From, e.To) {
			return fmt.Errorf("plus: duplicate edge %s->%s", e.From, e.To)
		}
		return validateEdgeText(e)
	})
	return err
}

// PutSurrogate stores a surrogate version of an object.
func (m *MemBackend) PutSurrogate(sp SurrogateSpec) error {
	_, err := m.commit(&Batch{Surrogates: []SurrogateSpec{sp}}, func() error {
		if !m.hasObject(sp.ForID) {
			return fmt.Errorf("plus: surrogate for %s: %w", sp.ForID, ErrNotFound)
		}
		return validateSurrogate(sp)
	})
	return err
}

// Apply validates the whole batch against the store's current state (plus
// the batch's own objects), then stores every record under one write
// lock — and, for the log, with one buffered write — returning the
// revision after the batch's last record. Validation failures leave the
// store untouched, and readers never observe a half-applied batch.
func (m *MemBackend) Apply(b Batch) (uint64, error) {
	return m.commit(&b, func() error { return b.validate(m) })
}

// GetObject fetches one object by id.
func (m *MemBackend) GetObject(id string) (Object, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed.Load() {
		return Object{}, ErrClosed
	}
	o, ok := m.objects[id]
	if !ok {
		return Object{}, fmt.Errorf("plus: %q: %w", id, ErrNotFound)
	}
	return o, nil
}

// History returns the superseded versions of an object, oldest first; the
// live version is not included. The log replays the full history on
// open; Compact drops it (only live state is rewritten).
func (m *MemBackend) History(id string) []Object {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]Object(nil), m.history[id]...)
}

// Objects returns every object (unspecified order).
func (m *MemBackend) Objects() []Object {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Object, 0, len(m.objects))
	for _, o := range m.objects {
		out = append(out, o)
	}
	return out
}

// EdgesFrom returns the outgoing edges of an object, in insertion order.
func (m *MemBackend) EdgesFrom(id string) []Edge {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]Edge(nil), m.out[id]...)
}

// EdgesTo returns the incoming edges of an object, in insertion order.
func (m *MemBackend) EdgesTo(id string) []Edge {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]Edge(nil), m.in[id]...)
}

// SurrogatesOf returns the stored surrogate specs for an object.
func (m *MemBackend) SurrogatesOf(id string) []SurrogateSpec {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]SurrogateSpec(nil), m.surrogates[id]...)
}

// NumObjects reports how many objects the backend holds.
func (m *MemBackend) NumObjects() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.objects)
}

// NumEdges reports how many edges the backend holds.
func (m *MemBackend) NumEdges() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.edges
}

// Revision returns a counter that increases with every stored record;
// equal revisions imply identical contents (within one process).
func (m *MemBackend) Revision() uint64 { return m.revision.Load() }

// Epoch identifies this backend's revision numbering.
func (m *MemBackend) Epoch() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epoch
}

// SetChangeHorizon resizes the resident change window (minimum 0, which
// retains nothing and forces every delta reader to rebuild). Shrinking
// discards the oldest retained changes.
func (m *MemBackend) SetChangeHorizon(n int) {
	n = max(n, 0)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.changeHorizon = n
	if len(m.changes) > n {
		m.dropChanges(len(m.changes) - n)
	}
}

// ChangeHorizon reports the resident change-window capacity.
func (m *MemBackend) ChangeHorizon() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.changeHorizon
}

// ChangeWindow reports the resident change-feed window; followers use it
// (via /v1/stats and healthz) to compute their lag against the oldest
// position the feed can still serve.
func (m *MemBackend) ChangeWindow() FeedWindow {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return FeedWindow{Base: m.changesBase, Depth: len(m.changes), Horizon: m.changeHorizon}
}

// feedRange maps the revision window (since, upTo] onto indexes of the
// resident change slice. Caller holds mu.
func (m *MemBackend) feedRange(since, upTo uint64) (lo, hi uint64, err error) {
	if m.closed.Load() {
		return 0, 0, ErrClosed
	}
	rev := m.revision.Load()
	if since > rev {
		return 0, 0, errFutureRevision(since, rev)
	}
	if since < m.changesBase {
		return 0, 0, ErrTooFarBehind
	}
	upTo = max(min(upTo, rev), since)
	return since - m.changesBase, upTo - m.changesBase, nil
}

// ChangesSince returns the records applied after revision since, in
// order. Only the recent window (ChangeHorizon) is resident; a request
// past it fails with ErrTooFarBehind and the caller rebuilds from a
// snapshot.
func (m *MemBackend) ChangesSince(since uint64) ([]Change, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	lo, hi, err := m.feedRange(since, m.revision.Load())
	if err != nil {
		return nil, err
	}
	return append([]Change(nil), m.changes[lo:hi]...), nil
}

// walkChangesSince streams the retained changes with revision in
// (since, upTo] to visit, in revision order, straight out of the resident
// window: nothing is copied. The pointer passed to visit is valid only
// for the duration of the call. A window that has aged out fails with
// ErrTooFarBehind before any visit.
func (m *MemBackend) walkChangesSince(since, upTo uint64, visit func(*Change)) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	lo, hi, err := m.feedRange(since, upTo)
	if err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		visit(&m.changes[i])
	}
	return nil
}

// Snapshot returns an immutable view of the store at its current
// revision. The clone is cached: consecutive snapshots with no
// intervening write return the same *Snapshot without taking the store
// lock, so concurrent lineage readers scale with cores instead of
// serializing on mu.
func (m *MemBackend) Snapshot() (*Snapshot, error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	if sn := m.snap.Load(); sn != nil && sn.rev == m.revision.Load() {
		return sn, nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed.Load() {
		return nil, ErrClosed
	}
	// Re-check under the lock: another reader may have cloned already.
	rev := m.revision.Load()
	if sn := m.snap.Load(); sn != nil && sn.rev == rev {
		return sn, nil
	}
	sn := m.clone(rev)
	m.snap.Store(sn)
	return sn, nil
}

// IndexStats reports the secondary index's current state.
func (m *MemBackend) IndexStats() IndexStats { return m.idx.stats() }

// Size reports the durable footprint: always 0, the backend is volatile.
func (m *MemBackend) Size() int64 { return 0 }

// Ping reports whether the backend is open.
func (m *MemBackend) Ping() error {
	if m.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Close marks the backend closed; contents are discarded with the
// process. Double close is a no-op.
func (m *MemBackend) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shut()
	return nil
}

// shut marks the core closed and wakes parked followers so they observe
// the close. Caller holds the write lock.
func (m *MemBackend) shut() {
	if !m.closed.Swap(true) {
		m.snap.Store(nil)
		m.broadcast()
	}
}
