package plus

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func openTemp(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plus.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func putChain(t *testing.T, s *Store, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := s.PutObject(Object{ID: id, Kind: Data, Name: "obj " + id}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(ids); i++ {
		if err := s.PutEdge(Edge{From: ids[i], To: ids[i+1], Label: "input-to"}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPutAndGetObject(t *testing.T) {
	s, _ := openTemp(t)
	o := Object{ID: "d1", Kind: Data, Name: "report", Features: map[string]string{"fmt": "pdf"}, Lowest: "Secret"}
	if err := s.PutObject(o); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetObject("d1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "report" || got.Features["fmt"] != "pdf" || got.Lowest != "Secret" {
		t.Errorf("got %+v", got)
	}
	if _, err := s.GetObject("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing object error = %v", err)
	}
}

func TestPutValidation(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.PutObject(Object{ID: "", Kind: Data}); err == nil {
		t.Error("empty id accepted")
	}
	if err := s.PutObject(Object{ID: "x", Kind: "banana"}); err == nil {
		t.Error("unknown kind accepted")
	}
	putChain(t, s, "a", "b")
	if err := s.PutEdge(Edge{From: "a", To: "zzz"}); err == nil {
		t.Error("edge to missing object accepted")
	}
	if err := s.PutEdge(Edge{From: "zzz", To: "a"}); err == nil {
		t.Error("edge from missing object accepted")
	}
	if err := s.PutEdge(Edge{From: "a", To: "a"}); err == nil {
		t.Error("self edge accepted")
	}
	if err := s.PutEdge(Edge{From: "a", To: "b"}); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := s.PutSurrogate(SurrogateSpec{ForID: "zzz", ID: "z'"}); err == nil {
		t.Error("surrogate for missing object accepted")
	}
	if err := s.PutSurrogate(SurrogateSpec{ForID: "a", ID: "a"}); err == nil {
		t.Error("surrogate id == original accepted")
	}
	if err := s.PutSurrogate(SurrogateSpec{ForID: "a", ID: "a'", InfoScore: 2}); err == nil {
		t.Error("bad infoScore accepted")
	}
}

func TestReopenRecoversState(t *testing.T) {
	s, path := openTemp(t)
	putChain(t, s, "a", "b", "c")
	if err := s.PutSurrogate(SurrogateSpec{ForID: "b", ID: "b'", Name: "anon", InfoScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumObjects() != 3 || s2.NumEdges() != 2 {
		t.Errorf("recovered %d objects %d edges, want 3, 2", s2.NumObjects(), s2.NumEdges())
	}
	o, err := s2.GetObject("b")
	if err != nil || o.Name != "obj b" {
		t.Errorf("recovered object b = %+v, %v", o, err)
	}
	if len(s2.surrogates["b"]) != 1 {
		t.Error("surrogate lost on reopen")
	}
	// The store stays writable after recovery.
	if err := s2.PutObject(Object{ID: "d", Kind: Invocation, Name: "proc"}); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	s, path := openTemp(t)
	putChain(t, s, "a", "b")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: append garbage that looks like a
	// half-written record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if s2.NumObjects() != 2 || s2.NumEdges() != 1 {
		t.Errorf("recovered %d objects %d edges, want 2, 1", s2.NumObjects(), s2.NumEdges())
	}
	// New appends land where the torn tail was removed.
	if err := s2.PutObject(Object{ID: "c", Kind: Data, Name: "after-crash"}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.NumObjects() != 3 {
		t.Errorf("objects after re-recovery = %d, want 3", s3.NumObjects())
	}
}

func TestCorruptTailChecksumTruncated(t *testing.T) {
	s, path := openTemp(t)
	putChain(t, s, "a", "b")
	sizeBefore := s.Size()
	if err := s.PutObject(Object{ID: "c", Kind: Data}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the final record's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[sizeBefore+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("tail corruption should truncate, got %v", err)
	}
	defer s2.Close()
	if s2.NumObjects() != 2 {
		t.Errorf("objects = %d, want 2 (corrupt tail dropped)", s2.NumObjects())
	}
}

func TestMidLogCorruptionFailsLoudly(t *testing.T) {
	s, path := openTemp(t)
	putChain(t, s, "a", "b", "c", "d")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte early in the log (inside the first record).
	data[10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("mid-log corruption silently accepted")
	}
}

func TestUseAfterClose(t *testing.T) {
	s, _ := openTemp(t)
	putChain(t, s, "a", "b")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := s.PutObject(Object{ID: "x", Kind: Data}); !errors.Is(err, ErrClosed) {
		t.Errorf("put after close = %v", err)
	}
	if _, err := s.GetObject("a"); !errors.Is(err, ErrClosed) {
		t.Errorf("get after close = %v", err)
	}
}

func TestSyncOptionAndSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plus.log")
	s, err := Open(path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A fresh store holds no records, but it is stamped with its epoch
	// identity on creation, so the log is not zero bytes.
	if s.NumObjects() != 0 || s.Revision() != 0 {
		t.Error("fresh store should be empty")
	}
	if s.Size() == 0 {
		t.Error("fresh store missing its epoch stamp")
	}
	if s.Epoch() == "" {
		t.Error("fresh store has no epoch")
	}
	before := s.Size()
	putChain(t, s, "a", "b")
	if s.Size() <= before {
		t.Error("size did not grow")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != s.Size() {
		t.Errorf("file size %d != tracked size %d", info.Size(), s.Size())
	}
}

func TestObjectsListing(t *testing.T) {
	s, _ := openTemp(t)
	putChain(t, s, "a", "b", "c")
	objs := s.Objects()
	if len(objs) != 3 {
		t.Errorf("Objects() = %d items", len(objs))
	}
}

func TestConcurrentWritersAndReaders(t *testing.T) {
	s, _ := openTemp(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := string(rune('a'+w)) + string(rune('0'+i%10)) + string(rune('0'+i/10))
				if err := s.PutObject(Object{ID: id, Kind: Data, Name: id}); err != nil {
					t.Errorf("put %s: %v", id, err)
					return
				}
				if _, err := s.GetObject(id); err != nil {
					t.Errorf("get %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.NumObjects() != workers*25 {
		t.Errorf("objects = %d, want %d", s.NumObjects(), workers*25)
	}
}

// changeWalker is the in-place feed walk every backend's core provides;
// the conformance suite reaches it through a Backend.
type changeWalker interface {
	walkChangesSince(since, upTo uint64, visit func(*Change)) error
}

var (
	errInjectedWrite    = errors.New("injected write failure")
	errInjectedTruncate = errors.New("injected truncate failure")
)

// failingLog wraps the store's log file: while failWrites is positive a
// write stores only the first half of its buffer and then fails, and a
// non-nil truncErr makes the rollback's truncate fail.
type failingLog struct {
	*os.File
	failWrites int
	truncErr   error
}

func (f *failingLog) Write(p []byte) (int, error) {
	if f.failWrites > 0 {
		f.failWrites--
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errInjectedWrite
	}
	return f.File.Write(p)
}

func (f *failingLog) Truncate(size int64) error {
	if f.truncErr != nil {
		return f.truncErr
	}
	return f.File.Truncate(size)
}

// TestShortWriteRollsBack: a write that fails halfway leaves nothing
// behind — not in memory, not in the log — so the next write succeeds and
// a reopen holds exactly the acknowledged records.
func TestShortWriteRollsBack(t *testing.T) {
	s, path := openTemp(t)
	putChain(t, s, "a", "b")
	rev, size := s.Revision(), s.Size()
	s.f = &failingLog{File: s.f.(*os.File), failWrites: 1}

	if err := s.PutObject(Object{ID: "lost", Kind: Data, Name: "lost"}); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("PutObject on a failing log = %v, want the write error", err)
	}
	if _, err := s.GetObject("lost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("failed write applied in memory: %v", err)
	}
	if s.Revision() != rev || s.Size() != size {
		t.Errorf("failed write moved revision %d -> %d, size %d -> %d", rev, s.Revision(), size, s.Size())
	}
	if _, err := s.Apply(Batch{
		Objects: []Object{{ID: "c", Kind: Data, Name: "c"}},
		Edges:   []Edge{{From: "b", To: "c"}},
	}); err != nil {
		t.Fatalf("write after a rolled-back failure: %v", err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != s.Size() {
		t.Errorf("log file is %v bytes, tracked size %d (%v)", info.Size(), s.Size(), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after a rolled-back write: %v", err)
	}
	defer s2.Close()
	if s2.NumObjects() != 3 || s2.NumEdges() != 2 {
		t.Errorf("reopened %d objects %d edges, want 3, 2", s2.NumObjects(), s2.NumEdges())
	}
	if _, err := s2.GetObject("lost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unacknowledged record replayed: %v", err)
	}
}

// TestFailedRollbackRefusesWrites: when the log cannot be cut back after
// a failed write, its tail is unknown, so the store refuses every later
// write instead of appending after the torn bytes.
func TestFailedRollbackRefusesWrites(t *testing.T) {
	s, path := openTemp(t)
	putChain(t, s, "a", "b")
	s.f = &failingLog{File: s.f.(*os.File), failWrites: 1, truncErr: errInjectedTruncate}

	if err := s.PutObject(Object{ID: "lost", Kind: Data, Name: "lost"}); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("PutObject on a failing log = %v, want the write error", err)
	}
	if err := s.PutObject(Object{ID: "c", Kind: Data, Name: "c"}); !errors.Is(err, errInjectedTruncate) {
		t.Fatalf("write after a failed rollback = %v, want the rollback error", err)
	}
	if s.NumObjects() != 2 {
		t.Errorf("objects = %d, want 2", s.NumObjects())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The half-written record is a torn tail, which replay truncates.
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.NumObjects() != 2 || s2.NumEdges() != 1 {
		t.Errorf("reopened %d objects %d edges, want 2, 1", s2.NumObjects(), s2.NumEdges())
	}
}

// TestOversizedRecordRejected: a record replay would refuse as corrupt is
// refused at write time, so the store still opens afterwards.
func TestOversizedRecordRejected(t *testing.T) {
	s, path := openTemp(t)
	putChain(t, s, "a")
	huge := Object{ID: "huge", Kind: Data, Name: strings.Repeat("x", maxRecordLen)}
	if err := s.PutObject(huge); err == nil {
		t.Fatal("oversized record accepted")
	}
	if _, err := s.GetObject("huge"); !errors.Is(err, ErrNotFound) {
		t.Errorf("refused record applied in memory: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.NumObjects() != 1 {
		t.Errorf("reopened %d objects, want 1", s2.NumObjects())
	}
}

// TestInvalidUTF8Rejected: the log encodes records as JSON, which would
// replace invalid UTF-8, so every write path refuses such text instead of
// acknowledging a record that replays differently.
func TestInvalidUTF8Rejected(t *testing.T) {
	s, path := openTemp(t)
	putChain(t, s, "a", "b")
	const bad = "bad\xffname"
	if err := s.PutObject(Object{ID: "c", Kind: Data, Name: bad}); err == nil {
		t.Error("object with invalid UTF-8 name accepted")
	}
	if err := s.PutObject(Object{ID: bad, Kind: Data}); err == nil {
		t.Error("object with invalid UTF-8 id accepted")
	}
	if err := s.PutEdge(Edge{From: "b", To: "a", Label: bad}); err == nil {
		t.Error("edge with invalid UTF-8 label accepted")
	}
	if err := s.PutSurrogate(SurrogateSpec{ForID: "a", ID: "a'", Features: map[string]string{"k": bad}}); err == nil {
		t.Error("surrogate with invalid UTF-8 feature accepted")
	}
	if _, err := s.Apply(Batch{Objects: []Object{{ID: "d", Kind: Data, Features: map[string]string{bad: "v"}}}}); err == nil {
		t.Error("batch object with invalid UTF-8 feature key accepted")
	}
	if _, err := s.Apply(Batch{Edges: []Edge{{From: "b", To: "a", Lowest: bad}}}); err == nil {
		t.Error("batch edge with invalid UTF-8 accepted")
	}
	rev := s.Revision()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Revision() != rev || s2.NumObjects() != 2 || s2.NumEdges() != 1 {
		t.Errorf("reopened at revision %d with %d objects %d edges, want %d, 2, 1",
			s2.Revision(), s2.NumObjects(), s2.NumEdges(), rev)
	}
}
