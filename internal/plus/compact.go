package plus

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Compact rewrites the log so it contains exactly one record per live
// object (objects are replace-on-put, so a busy store accumulates
// superseded versions) plus every edge and surrogate, then atomically
// swaps it in. The store stays usable afterwards; readers and writers are
// blocked for the duration.
func (s *LogBackend) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}

	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("plus: compact: %w", err)
	}
	nextEpoch := newEpoch()
	written, err := s.writeLive(tmp, nextEpoch)
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmpPath, s.path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("plus: compact: %w", err)
	}

	// The renamed file is now the log, and tmp is already positioned at
	// its end. The old handle points at the replaced file, so its close
	// error no longer matters.
	_ = s.f.Close()
	s.f = tmp
	s.size = written
	// The new log was written from the live state, so whatever tail a
	// failed append left behind is gone.
	s.failed = nil
	// The compacted log holds only live state; drop the in-memory history
	// so it matches what a reopen would reconstruct.
	s.history = map[string][]Object{}
	s.epoch = nextEpoch
	// Drop the resident change window too: its entries carry pre-compact
	// revision numbers, which the rewritten log no longer reproduces — a
	// reopen replays the compacted records into those same revision slots.
	// Serving them under the new epoch would hand out cursors that resolve
	// to different records after a restart. With the window rebased to the
	// current revision, readers behind it get ErrTooFarBehind (HTTP 410)
	// and rebuild from a snapshot, which is always correct.
	s.changes = nil
	s.changesBase = s.revision.Load()
	// Wake parked change-feed followers: their streams are pinned to the
	// old epoch, and the handler ends them when it notices the rotation
	// (the client then reconnects and resyncs through the 410 path).
	s.broadcast()

	// The rename is durable only once its directory entry is.
	if err := syncDir(filepath.Dir(s.path)); err != nil {
		return fmt.Errorf("plus: compact: sync dir: %w", err)
	}
	return nil
}

// writeLive writes the live state as a fresh log to f: an epoch record,
// then every object, edge and surrogate. It returns the bytes written.
// Caller holds the core's write lock.
func (s *LogBackend) writeLive(f *os.File, epoch string) (int64, error) {
	ids := make([]string, 0, len(s.objects))
	for id := range s.objects {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	// Compaction renumbers history: replaying the rewritten log yields one
	// record per live object instead of every superseded version, so old
	// revision numbers stop naming the same prefixes. The caller rotates
	// the epoch (stranded cursors get a 410-resync instead of silently
	// wrong deltas); the epoch record carries the replay base so the
	// counter resumes at its current height — in-process consumers keep
	// their revision-numbered state.
	live := uint64(len(s.objects))
	for _, id := range ids {
		live += uint64(len(s.out[id]) + len(s.surrogates[id]))
	}

	w := bufio.NewWriter(f)
	var written int64
	var buf []byte
	put := func(kind byte, v any) error {
		var err error
		if buf, err = appendRecord(buf[:0], kind, v); err != nil {
			return err
		}
		written += int64(len(buf))
		_, err = w.Write(buf)
		return err
	}
	if err := put(recEpoch, epochRecord{Epoch: epoch, Base: s.revision.Load() - live}); err != nil {
		return 0, err
	}
	for _, id := range ids {
		if err := put(recObject, s.objects[id]); err != nil {
			return 0, err
		}
	}
	for _, id := range ids {
		for _, e := range s.out[id] {
			if err := put(recEdge, e); err != nil {
				return 0, err
			}
		}
		for _, sp := range s.surrogates[id] {
			if err := put(recSurrogate, sp); err != nil {
				return 0, err
			}
		}
	}
	return written, w.Flush()
}

// syncDir fsyncs a directory so a rename inside it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
