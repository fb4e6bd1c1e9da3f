package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/pkg/plusclient"
)

func durations(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]time.Duration, 100)
	for i := range xs {
		xs[i] = time.Duration(i+1) * time.Millisecond
	}
	v, pct, ok := tail(xs, minBeyond)
	if !ok || v != 90*time.Millisecond || pct != 90 {
		t.Fatalf("tail of 1..100 ms = %v at p%v (ok %v), want 90ms at p90", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != minBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, minBeyond)
	}

	// Eleven samples: the tail is the smallest, the only one with ten
	// above it.
	v, pct, ok = tail(durations(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), minBeyond)
	if !ok || v != time.Millisecond || math.Abs(pct-100.0/11) > 1e-9 {
		t.Fatalf("tail of 11 samples = %v at p%v (ok %v), want 1ms at p%.3f", v, pct, ok, 100.0/11)
	}
	// Ten samples support no tail at all.
	if _, _, ok := tail(durations(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), minBeyond); ok {
		t.Fatal("ten samples reported a tail")
	}
}

// TestRefusedOpIsFailedAndSlowest drives the SDK against a server that
// refuses (401, 403) or errs (503): each op must count as failed, and a
// failure must read slower than any latency, so it misses every limit.
func TestRefusedOpIsFailedAndSlowest(t *testing.T) {
	statuses := []int{http.StatusUnauthorized, http.StatusForbidden, http.StatusServiceUnavailable}
	for _, status := range statuses {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_, _ = w.Write([]byte(`{"error":"refused","code":"refused"}`))
		}))
		// Each window: two fast successes and minBeyond+1 refusals.
		const span = windows * time.Second
		var s opStats
		for w := 0; w < windows; w++ {
			at := time.Duration(w) * time.Second
			s.record(at, time.Millisecond, nil)
			s.record(at, time.Millisecond, nil)
			for i := 0; i < minBeyond+1; i++ {
				t0 := time.Now()
				_, err := plusclient.New(srv.URL).Lineage(context.Background(), plusclient.LineageRequest{Start: "x"})
				var apiErr *plusclient.APIError
				if !errors.As(err, &apiErr) || apiErr.Status != status {
					t.Fatalf("status %d: SDK returned %v", status, err)
				}
				s.record(at, time.Since(t0), err)
			}
		}
		srv.Close()

		attempted, failed := s.counts()
		if attempted != windows*(minBeyond+3) || failed != windows*(minBeyond+1) {
			t.Fatalf("status %d: attempted %d failed %d", status, attempted, failed)
		}
		// Most ops failed: the median and the tail are failures, and
		// read as +Inf against any limit.
		sum := s.summary(span)
		if !sum.HasTail || !math.IsInf(ms(sum.P50), 1) || !math.IsInf(ms(sum.Tail), 1) {
			t.Fatalf("status %d: p50 %v tail %v, want both +Inf ms", status, ms(sum.P50), ms(sum.Tail))
		}
		if s.meanOK() != float64(time.Millisecond) {
			t.Fatalf("status %d: mean of successes %v, want 1ms", status, s.meanOK())
		}
	}
}

// TestWindowMedianShrugsOffOneWindow: a burst of slow ops inside one
// window sets that window's tail but not the reported one, and every
// window needs more than minBeyond ops for a tail.
func TestWindowMedianShrugsOffOneWindow(t *testing.T) {
	const span = windows * time.Second
	var s opStats
	for w := 0; w < windows; w++ {
		for i := 0; i < 100; i++ {
			at := time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond
			d := time.Duration(1+i%10) * time.Millisecond // 1..10 ms, ten of each
			if w == 2 && i < 20 {
				d = time.Second
			}
			s.record(at, d, nil)
		}
	}
	sum := s.summary(span)
	if !sum.HasTail || sum.Tail != 9*time.Millisecond || sum.TailPct != 90 {
		t.Fatalf("windowed tail %v at p%v (ok %v), want 9ms at p90", sum.Tail, sum.TailPct, sum.HasTail)
	}
	if sum.P50 != 5500*time.Microsecond {
		t.Fatalf("windowed p50 %v, want 5.5ms", sum.P50)
	}
	// The same ops seen as one window: the burst owns the tail.
	all := make([]time.Duration, 0, len(s.samples))
	for _, x := range s.samples {
		all = append(all, x.d)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if v, _, _ := tail(all, minBeyond); v != time.Second {
		t.Fatalf("whole-run tail %v, want the 1s burst", v)
	}

	var few opStats
	for w := 0; w < windows; w++ {
		for i := 0; i < minBeyond; i++ {
			few.record(time.Duration(w)*time.Second, time.Millisecond, nil)
		}
	}
	if few.summary(span).HasTail {
		t.Fatal("windows of minBeyond ops reported a tail")
	}
}

// TestWindowCountsSkipFailures: per-window op and record counts take
// successful ops only, from every stats given, and a failed write
// carries no records.
func TestWindowCountsSkipFailures(t *testing.T) {
	const span = windows * time.Second
	var reads, writes opStats
	for w := 0; w < windows; w++ {
		at := time.Duration(w) * time.Second
		reads.record(at, time.Millisecond, nil)
		reads.record(at, time.Millisecond, errors.New("refused"))
		writes.recordWrite(at, time.Millisecond, 6, nil)
		writes.recordWrite(at, time.Millisecond, 6, errors.New("refused"))
	}
	// An op starting after the span counts in the last window.
	writes.recordWrite(span+time.Millisecond, time.Millisecond, 3, nil)
	ops, records := windowCounts(span, &reads, &writes)
	for w := 0; w < windows; w++ {
		wantOps, wantRecords := 2.0, 6.0
		if w == windows-1 {
			wantOps, wantRecords = 3, 9
		}
		if ops[w] != wantOps || records[w] != wantRecords {
			t.Errorf("window %d: %v ops, %v records, want %v and %v", w, ops[w], records[w], wantOps, wantRecords)
		}
	}
	if m := medianOf([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("medianOf(4,1,3,2) = %v, want 2.5", m)
	}
}

func TestMedian(t *testing.T) {
	if m := median(durations(1, 2, 3)); m != 2*time.Millisecond {
		t.Fatalf("median(1,2,3) = %v", m)
	}
	if m := median(durations(1, 2, 3, 4)); m != 2500*time.Microsecond {
		t.Fatalf("median(1,2,3,4) = %v", m)
	}
	if m := median([]time.Duration{time.Millisecond, failedLatency}); m != failedLatency {
		t.Fatalf("median with a failure in the middle = %v, want the failure", m)
	}
}

// TestQuartilesMatchPython pins the repeat mode's spreads to Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value did not fail")
	}
}
