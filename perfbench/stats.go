package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples is one unlucky request.
const minBeyond = 10

// failedLatency is the latency recorded for a failed or refused op. It
// sorts above every real latency, so a failure misses every latency
// limit and lands in the tail instead of vanishing from it.
const failedLatency = time.Duration(math.MaxInt64)

// windows is how many equal parts of the measured loop the latency
// figures are taken over; a run reports the median part, so one part
// disturbed by a rare event (a collection storm, a burst of CPU stolen by
// the host) moves a figure no more than an ordinary part.
const windows = 5

// opStats collects one op kind's latencies in a closed loop. Safe for
// concurrent use.
type opStats struct {
	mu        sync.Mutex
	samples   []opSample
	attempted int
	failed    int
}

// opSample is one op: when it started, relative to the loop's start,
// how long it took, and how many records it wrote (0 for a read).
type opSample struct {
	at, d   time.Duration
	records int
}

// record stores one attempted op that started at (relative to the loop)
// and took d when it succeeded; a failed or refused op is recorded with
// failedLatency.
func (s *opStats) record(at, d time.Duration, err error) { s.recordWrite(at, d, 0, err) }

// recordWrite is record for a write that carried records; a failed
// write carried none.
func (s *opStats) recordWrite(at, d time.Duration, records int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if err != nil {
		s.failed++
		d, records = failedLatency, 0
	}
	s.samples = append(s.samples, opSample{at, d, records})
}

// parts splits the ops by start time into windows equal parts of span;
// ops starting after span fall in the last.
func (s *opStats) parts(span time.Duration) [][]opSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts := make([][]opSample, windows)
	for _, x := range s.samples {
		w := 0
		if span > 0 {
			w = min(max(int(int64(x.at)*windows/int64(span)), 0), windows-1)
		}
		parts[w] = append(parts[w], x)
	}
	return parts
}

// windowCounts returns, per window of span, the successful ops and the
// records they wrote, across every stats given.
func windowCounts(span time.Duration, stats ...*opStats) (ops, records []float64) {
	ops, records = make([]float64, windows), make([]float64, windows)
	for _, s := range stats {
		for w, part := range s.parts(span) {
			for _, x := range part {
				if x.d != failedLatency {
					ops[w]++
					records[w] += float64(x.records)
				}
			}
		}
	}
	return ops, records
}

// medianOf is the median of xs (the mean of the middle two for even
// lengths; 0 for none).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// counts reports the ops attempted and failed.
func (s *opStats) counts() (attempted, failed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempted, s.failed
}

// meanOK is the mean latency of the successful ops (0 when none).
func (s *opStats) meanOK() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	n := 0
	for _, x := range s.samples {
		if x.d != failedLatency {
			sum += float64(x.d)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// summary is the latency distribution of one op kind: the median over
// the windows of each window's median and of each window's tail.
type summary struct {
	N       int
	Failed  int
	P50     time.Duration
	Tail    time.Duration
	TailPct float64 // median percentile the window tails sit at
	HasTail bool    // false when a window has minBeyond ops or fewer

	WindowP50 []float64 // each window's median in ms, in loop order
}

// summary computes each window's median and tail over the windows of
// span and reports the median of each.
func (s *opStats) summary(span time.Duration) summary {
	attempted, failed := s.counts()
	sum := summary{N: attempted, Failed: failed, HasTail: true}
	var p50s, tails []time.Duration
	var pcts []float64
	for _, part := range s.parts(span) {
		lat := make([]time.Duration, len(part))
		for i, x := range part {
			lat[i] = x.d
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		t, pct, ok := tail(lat, minBeyond)
		if !ok {
			sum.HasTail = false
			return sum
		}
		p50s, tails, pcts = append(p50s, median(lat)), append(tails, t), append(pcts, pct)
	}
	for _, p := range p50s {
		sum.WindowP50 = append(sum.WindowP50, ms(p))
	}
	sort.Slice(p50s, func(i, j int) bool { return p50s[i] < p50s[j] })
	sort.Slice(tails, func(i, j int) bool { return tails[i] < tails[j] })
	sort.Float64s(pcts)
	sum.P50, sum.Tail, sum.TailPct = median(p50s), median(tails), pcts[len(pcts)/2]
	return sum
}

// median of ascending xs (the mean of the middle two for even lengths;
// a failed op's sentinel wins outright, so a median of failures is a
// failure).
func median(xs []time.Duration) time.Duration {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	a, b := xs[n/2-1], xs[n/2]
	if a == failedLatency || b == failedLatency {
		return failedLatency
	}
	return a + (b-a)/2
}

// tail returns the highest percentile of ascending xs that still has
// at least beyond samples above it — the (beyond+1)-th largest value —
// and that percentile, 100*(n-beyond)/n. ok is false when there are not
// more than beyond samples.
func tail(xs []time.Duration, beyond int) (v time.Duration, pct float64, ok bool) {
	n := len(xs)
	if n <= beyond {
		return 0, 0, false
	}
	return xs[n-1-beyond], 100 * float64(n-beyond) / float64(n), true
}

// ms renders a latency in milliseconds; a failed op reads as +Inf.
func ms(d time.Duration) float64 {
	if d == failedLatency {
		return math.Inf(1)
	}
	return float64(d) / float64(time.Millisecond)
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the repeat mode reports spreads exactly as a
// Python reader of the same values would compute them.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", n)
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// fmtList renders xs compactly for a comment line.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

// meanOf averages xs (0 for none).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
