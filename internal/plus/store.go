// Package plus reimplements the substrate the paper evaluated on: the
// PLUS provenance prototype ("PLUS: Synthesizing privacy, lineage,
// uncertainty and security", ICDE Workshops 2008). It provides a durable
// provenance store for lineage DAGs — data objects, process invocations
// and the edges between them — together with a privilege-aware lineage
// query engine that answers path-traversal queries ("what contributed to
// this data?") with protected accounts, and an HTTP server/client pair.
//
// Storage sits behind the Backend interface, and one in-memory core
// serves it: MemBackend (membackend.go) holds the records, the
// revision-ordered change feed (ChangesSince / Snapshot.DeltaSince) that
// the account, view and cache layers consume for incremental
// maintenance, and the cached immutable snapshots that lineage queries
// traverse without blocking writers. On its own the core is the volatile
// backend. LogBackend (this file) makes it durable: a single append-only
// log file where each record is length-prefixed, type-tagged and
// CRC-guarded. Every write is appended before the core applies it, the
// core is rebuilt by replaying the log on open, and a torn tail from a
// crashed writer is detected and truncated. This is deliberately the
// classical minimal write-ahead design: the paper's Figure 10 experiment
// decomposes query cost into DB access, graph build and protection, and
// this engine reproduces that decomposition honestly.
package plus

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ObjectKind distinguishes provenance node types (Open Provenance Model
// terminology: artifacts and processes).
type ObjectKind string

const (
	// Data is an artifact: a file, record, report, model, ...
	Data ObjectKind = "data"
	// Invocation is a process execution that consumed and produced data.
	Invocation ObjectKind = "invocation"
)

// Object is one provenance node.
type Object struct {
	ID       string            `json:"id"`
	Kind     ObjectKind        `json:"kind"`
	Name     string            `json:"name"`
	Features map[string]string `json:"features,omitempty"`
	// Lowest is the nickname of the object's lowest privilege-predicate;
	// empty means Public.
	Lowest string `json:"lowest,omitempty"`
	// Protect selects how the object's node-edge incidences are marked
	// for consumers below Lowest (§3.2: providers may mark all edges
	// connected to a node): "surrogate" preserves connectivity through
	// the hidden node, "hide" severs it, "" leaves the incidences
	// Visible (edges then attach to the object's surrogate, if any).
	Protect string `json:"protect,omitempty"`
}

// Edge is one provenance relationship (e.g. "input-to", "generated-by")
// from object From to object To, directed along dataflow.
type Edge struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Label string `json:"label,omitempty"`
	// Marking optionally restricts the edge for consumers below Lowest:
	// "surrogate" contracts it, "hide" drops it, "" shows it.
	Marking string `json:"marking,omitempty"`
	// Lowest is the predicate at or above which the edge is fully visible
	// when Marking is set.
	Lowest string `json:"lowest,omitempty"`
}

// SurrogateSpec is a provider-supplied surrogate version of an object.
type SurrogateSpec struct {
	ForID     string            `json:"for"`
	ID        string            `json:"id"`
	Name      string            `json:"name"`
	Features  map[string]string `json:"features,omitempty"`
	Lowest    string            `json:"lowest,omitempty"`
	InfoScore float64           `json:"infoScore"`
}

// record type tags in the log.
const (
	recObject    = byte(1)
	recEdge      = byte(2)
	recSurrogate = byte(3)
	// recEpoch stamps the log with its epoch identity (see Backend.Epoch).
	// It carries no provenance data: applying it never bumps the revision
	// or enters the change feed. A freshly created log gets one as its
	// first record; Compact writes a new one (the rewrite renumbers
	// revisions, so the old epoch's cursors must stop resolving); a legacy
	// log without one has an epoch appended at open.
	recEpoch = byte(4)
)

// epochRecord is the payload of a recEpoch record. Base, when the record
// heads the log, is the revision the replay counter starts from: a
// compacted log holds only live records, but in-process consumers hold
// revision-numbered state, so replay must resume the old numbering's
// height rather than restart at zero.
type epochRecord struct {
	Epoch string `json:"epoch"`
	Base  uint64 `json:"base,omitempty"`
}

// ErrNotFound is returned when an object id is unknown.
var ErrNotFound = errors.New("plus: object not found")

// ErrClosed is returned on use after Close.
var ErrClosed = errors.New("plus: store closed")

// LogBackend is the durable provenance store: the in-memory core
// (MemBackend, whose read, feed and snapshot methods it inherits) over a
// CRC-guarded append-only log. Every write reaches the log through the
// core's persist hook, under the core's write lock, before the core
// applies it. All methods are safe for concurrent use. It implements
// Backend.
type LogBackend struct {
	*MemBackend

	// The fields below are guarded by the core's mu.
	f    logFile
	path string
	size int64
	sync bool
	// failed, once set, refuses every later write: an append failed and
	// the log could not be cut back to its last good offset, so its tail
	// is unknown. Compact clears it by rewriting the log from memory.
	failed error
}

// logFile is what the appender needs of its open log file. *os.File is
// the implementation; tests substitute one that fails writes.
type logFile interface {
	io.WriteSeeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Store is the historical name of the durable engine, kept as an alias so
// existing callers and tests keep compiling.
type Store = LogBackend

var _ Backend = (*LogBackend)(nil)

// Options configure Open.
type Options struct {
	// Sync makes every append fsync before returning (durable but slow);
	// off by default, matching typical prototype deployments.
	Sync bool
}

// Open opens (or creates) a store at path, replaying the log to rebuild
// the in-memory core. A torn final record — a crash mid-append — is
// truncated away; any earlier corruption is reported as an error.
func Open(path string, opts Options) (*LogBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("plus: open %s: %w", path, err)
	}
	s := &LogBackend{MemBackend: newMemBackend(""), f: f, path: path, sync: opts.Sync}
	if err := s.replay(f); err != nil {
		f.Close()
		return nil, err
	}
	if s.epoch == "" {
		// A new log (or one created before epochs existed): mint and
		// persist an identity. For a legacy log the record lands at the
		// tail, which is fine — replay applies it wherever it sits.
		epoch := newEpoch()
		buf, err := appendRecord(nil, recEpoch, epochRecord{Epoch: epoch})
		if err == nil {
			err = s.appendLog(buf)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("plus: stamp epoch: %w", err)
		}
		s.epoch = epoch
	}
	s.persist = s.appendBatch
	return s, nil
}

// replay scans the log, applying every intact record to the core and
// truncating a torn tail.
func (s *LogBackend) replay(f *os.File) error {
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("plus: stat: %w", err)
	}
	total := info.Size()
	var off int64
	r := io.NewSectionReader(f, 0, total)
	for off < total {
		payload, n, err := readRecord(r)
		if err != nil {
			tornAtTail := errors.Is(err, errTornRecord) ||
				(errors.Is(err, errBadChecksum) && off+n >= total)
			if tornAtTail {
				// Crash mid-append: discard the tail.
				if terr := f.Truncate(off); terr != nil {
					return fmt.Errorf("plus: truncate torn tail: %w", terr)
				}
				break
			}
			return fmt.Errorf("plus: replay at offset %d: %w", off, err)
		}
		if err := s.replayRecord(payload[0], payload[1:]); err != nil {
			return fmt.Errorf("plus: replay at offset %d: %w", off, err)
		}
		off += n
	}
	s.size = off
	if _, err := f.Seek(s.size, io.SeekStart); err != nil {
		return fmt.Errorf("plus: seek: %w", err)
	}
	return nil
}

// replayRecord decodes one logged record and applies it to the core.
func (s *LogBackend) replayRecord(kind byte, body []byte) error {
	switch kind {
	case recEpoch:
		var er epochRecord
		if err := json.Unmarshal(body, &er); err != nil {
			return err
		}
		if er.Epoch == "" {
			return fmt.Errorf("plus: epoch record with empty epoch")
		}
		s.epoch = er.Epoch
		// Base only applies at the head of the log (a compacted rewrite);
		// an epoch record appended mid-history never rewinds the counter.
		if s.revision.Load() == 0 && er.Base > 0 {
			s.revision.Store(er.Base)
			s.changesBase = er.Base
		}
	case recObject:
		var o Object
		if err := json.Unmarshal(body, &o); err != nil {
			return err
		}
		s.applyObject(o)
	case recEdge:
		var e Edge
		if err := json.Unmarshal(body, &e); err != nil {
			return err
		}
		s.applyEdge(e)
	case recSurrogate:
		var sp SurrogateSpec
		if err := json.Unmarshal(body, &sp); err != nil {
			return err
		}
		s.applySurrogate(sp)
	default:
		return fmt.Errorf("plus: unknown record type %d", kind)
	}
	return nil
}

// errTornRecord marks an incomplete record at the very end of the log;
// errBadChecksum marks a record whose payload fails its CRC. A bad
// checksum at the tail is a torn write (truncated by replay); anywhere
// else it is corruption and replay fails loudly.
var (
	errTornRecord  = errors.New("plus: torn record")
	errBadChecksum = errors.New("plus: record checksum mismatch")
)

// maxRecordLen bounds a record's payload. Replay treats a longer length
// field as corruption, so the writer refuses such records up front.
const maxRecordLen = 1 << 24

// appendRecord frames one record onto buf. Record layout: 4-byte
// little-endian payload length, 4-byte CRC32C of the payload, payload
// (1 type byte + JSON body).
func appendRecord(buf []byte, kind byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return buf, fmt.Errorf("plus: encode: %w", err)
	}
	if 1+len(body) > maxRecordLen {
		return buf, fmt.Errorf("plus: record of %d bytes exceeds the %d-byte limit", 1+len(body), maxRecordLen)
	}
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(1+len(body)))
	buf = append(buf, 0, 0, 0, 0) // checksum, filled in below
	buf = append(buf, kind)
	buf = append(buf, body...)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[start+8:], crcTable))
	return buf, nil
}

// readRecord reads one record framed by appendRecord.
func readRecord(r io.Reader) ([]byte, int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, 0, errTornRecord
		}
		return nil, 0, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > maxRecordLen {
		return nil, 0, fmt.Errorf("plus: implausible record length %d", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, 0, errTornRecord
		}
		return nil, 0, err
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, int64(8 + length), errBadChecksum
	}
	return payload, int64(8 + length), nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendBatch is the core's persist hook: it frames the batch's records
// in the order the core applies them (objects, edges, surrogates) and
// appends them with one write.
func (s *LogBackend) appendBatch(b *Batch) error {
	var buf []byte
	var err error
	for _, o := range b.Objects {
		if buf, err = appendRecord(buf, recObject, o); err != nil {
			return err
		}
	}
	for _, e := range b.Edges {
		if buf, err = appendRecord(buf, recEdge, e); err != nil {
			return err
		}
	}
	for _, sp := range b.Surrogates {
		if buf, err = appendRecord(buf, recSurrogate, sp); err != nil {
			return err
		}
	}
	return s.appendLog(buf)
}

// appendLog writes framed records at the end of the log (and fsyncs with
// Options.Sync). A failed or short write, or a failed fsync, cuts the
// file back to the last good offset, so the log never keeps bytes the
// core did not apply and the next append lands where it should. When
// even that rollback fails the store refuses every later write. Caller
// holds the core's write lock.
func (s *LogBackend) appendLog(buf []byte) error {
	if s.failed != nil {
		return s.failed
	}
	_, err := s.f.Write(buf)
	if err != nil {
		err = fmt.Errorf("plus: write: %w", err)
	} else if s.sync {
		if serr := s.f.Sync(); serr != nil {
			err = fmt.Errorf("plus: sync: %w", serr)
		}
	}
	if err != nil {
		if rerr := s.rollback(); rerr != nil {
			s.failed = fmt.Errorf("plus: log refuses writes: rollback after %v failed: %w", err, rerr)
		}
		return err
	}
	s.size += int64(len(buf))
	return nil
}

// rollback truncates the log to its last good offset and moves the write
// position back there.
func (s *LogBackend) rollback() error {
	if err := s.f.Truncate(s.size); err != nil {
		return err
	}
	_, err := s.f.Seek(s.size, io.SeekStart)
	return err
}

// Close closes the core and flushes and closes the log file. Double
// close is a no-op.
func (s *LogBackend) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shut()
	f := s.f
	if f == nil {
		return nil
	}
	s.f = nil
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("plus: close sync: %w", err)
	}
	return f.Close()
}

// Size returns the log size in bytes.
func (s *LogBackend) Size() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}
