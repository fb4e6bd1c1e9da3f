package plus

import (
	"errors"
	"fmt"
)

// This file defines the change feed: the ordered stream of record deltas a
// backend applied between two revisions. The feed is what turns the
// revision counter from a bare invalidation signal ("something changed,
// throw every derived structure away") into a maintenance signal ("these
// records changed, patch what they touch"). The protected-account and
// PLUSQL view layers consume it to refresh caches incrementally instead of
// rebuilding whole-snapshot accounts on every write.

// ChangeKind tags one change-feed record.
type ChangeKind byte

const (
	// ChangeObject is an object stored (new) or replaced (the previous
	// version moved to history).
	ChangeObject ChangeKind = 1
	// ChangeEdge is an edge stored. Edges are never replaced or removed.
	ChangeEdge ChangeKind = 2
	// ChangeSurrogate is a surrogate spec stored. Surrogates accumulate.
	ChangeSurrogate ChangeKind = 3
)

// Change is one applied record together with the revision it produced.
// Exactly one of Object, Edge and Surrogate is meaningful, selected by
// Kind.
type Change struct {
	Rev       uint64
	Kind      ChangeKind
	Object    Object
	Edge      Edge
	Surrogate SurrogateSpec

	// prev is the version an object change replaced (nil for a new
	// object): the secondary index unpublishes it.
	prev *Object
}

// ErrTooFarBehind is returned by ChangesSince when the requested start
// revision has aged out of the backend's retained change window; callers
// fall back to a full rebuild from a fresh snapshot.
var ErrTooFarBehind = errors.New("plus: revision too far behind retained change feed")

// errFutureRevision reports a ChangesSince start beyond the backend's
// current revision.
func errFutureRevision(since, rev uint64) error {
	return fmt.Errorf("plus: revision %d is in the future (backend at %d)", since, rev)
}

// Delta is the change set between two revisions of one backend, as seen
// from a snapshot: every record applied after Since, up to and including
// Rev, in application order.
type Delta struct {
	// Since is the revision the delta starts after (exclusive).
	Since uint64
	// Rev is the revision the delta ends at (inclusive).
	Rev uint64
	// Changes holds the applied records in revision order.
	Changes []Change
}

// Empty reports whether the delta carries no changes.
func (d *Delta) Empty() bool { return len(d.Changes) == 0 }

// Touched returns the ids of every object the delta touches directly:
// objects stored or replaced, endpoints of new edges, and originals of new
// surrogates. This is the seed of any dirty-region computation.
func (d *Delta) Touched() map[string]bool {
	out := make(map[string]bool, len(d.Changes))
	for _, c := range d.Changes {
		switch c.Kind {
		case ChangeObject:
			out[c.Object.ID] = true
		case ChangeEdge:
			out[c.Edge.From] = true
			out[c.Edge.To] = true
		case ChangeSurrogate:
			out[c.Surrogate.ForID] = true
		}
	}
	return out
}

// errNoSource reports a snapshot that was not taken of a backend, so it
// has no change feed to read.
var errNoSource = errors.New("plus: snapshot has no change-feed source")

// walkObjectChanges streams the object changes applied after revision
// since, up to the snapshot's revision, into visit, in revision order,
// each with the version it replaced (nil for a new object). It
// is the allocation-free sibling of DeltaSince for consumers — like the
// secondary index — that only fold per-object state: nothing is copied.
// On any feed hazard (ErrTooFarBehind, missing source) the caller must
// rebuild.
func (sn *Snapshot) walkObjectChanges(since uint64, visit func(o Object, prev *Object)) error {
	if since > sn.rev {
		return errFutureRevision(since, sn.rev)
	}
	if sn.source == nil {
		return errNoSource
	}
	return sn.source.walkChangesSince(since, sn.rev, func(c *Change) {
		if c.Kind == ChangeObject {
			visit(c.Object, c.prev)
		}
	})
}

// DeltaSince returns the changes applied after revision since, up to this
// snapshot's revision, drawn from the backend the snapshot was taken of.
// It fails with ErrTooFarBehind when the backend no longer retains the
// window (callers rebuild from scratch) and with an error when since is
// newer than the snapshot.
func (sn *Snapshot) DeltaSince(since uint64) (*Delta, error) {
	if since > sn.rev {
		return nil, errFutureRevision(since, sn.rev)
	}
	if sn.source == nil {
		return nil, errNoSource
	}
	d := &Delta{Since: since, Rev: sn.rev}
	// The backend may have advanced past this snapshot; the walk stops at
	// the window the snapshot covers.
	if err := sn.source.walkChangesSince(since, sn.rev, func(c *Change) {
		d.Changes = append(d.Changes, *c)
	}); err != nil {
		return nil, err
	}
	return d, nil
}
