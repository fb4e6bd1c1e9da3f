package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/pkg/plusclient"
)

// setupReps is how many times a run sets its workload up from scratch;
// setup_s is the median of their process CPU times, and the last set-up
// is the one measured.
const setupReps = 5

// workloadSpec describes one workload.
type workloadSpec struct {
	// op names the workload's main op, the one cpu_ms_per_op describes.
	op string
	// pace is each client's op rate: a client issues its next op once
	// the previous one has returned and its next slot has come.
	pace float64
	// bypassed lists the op families the workload's traffic never runs;
	// the traced run probes them so every per-layer metric is measured.
	bypassed []string
	run      func(r *run) error
}

var workloads = map[string]workloadSpec{
	"lineage_pipeline": {op: "lineage", pace: 16, bypassed: []string{"query"}, run: runLineagePipeline},
	"plusql_large":     {op: "query", pace: 10, bypassed: []string{"lineage"}, run: runPlusqlLarge},
	"ingest_follow":    {op: "batch", pace: 30, bypassed: []string{"lineage", "query"}, run: runIngestFollow},
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// run is one benchmark run of one workload.
type run struct {
	workload string
	spec     workloadSpec
	seed     int64
	seconds  time.Duration
	dir      string
	tr       *tracer // nil in untraced runs
	st       *stack

	clients int

	ops       opStats // the workload's main op (untraced ones in a traced run)
	tracedOps opStats // the traced main ops of a traced run
	writes    opStats // every batch write (the main op on ingest_follow)
	records   atomic.Int64
	loopStart time.Time
	elapsed   time.Duration
	// cpuMarks is the process CPU time (user+system, every goroutine:
	// clients, server, follower, collector) at each window boundary of
	// the loop.
	cpuMarks [windows + 1]time.Duration

	setupS, setupWallS []float64

	// Traced runs only: per-layer samples and the counters read at the
	// loop's edges.
	layerMu   sync.Mutex
	layer     map[string][]float64
	snapByRev map[uint64]float64
	before    counters

	checkMu   sync.Mutex
	failures  []string
	protected protectedSet

	metrics map[string]metric
}

// counters are the program's own cumulative counters, read before and
// after the measured loop.
type counters struct {
	lineage   plus.LineageCacheStats
	view      plusql.ViewCacheStats
	index     plus.IndexStats
	applyN    uint64
	applyNs   uint64
	logBytes  int64
	records   int64
	applied   uint64
	batches   uint64
	resyncs   uint64
	reconnect uint64
}

func (r *run) readCounters() counters {
	ap := r.st.reg.HistogramVec("plus_backend_op_seconds", "", obs.ScaleNanos, "op").With("apply").Snapshot()
	h := r.st.rep.Health()
	return counters{
		lineage: r.st.lineage.Stats(), view: r.st.query.CacheStats(), index: r.st.raw.IndexStats(),
		applyN: ap.Count, applyNs: ap.Sum, logBytes: r.st.raw.Size(), records: r.records.Load(),
		applied: h.Applied, batches: h.Batches, resyncs: h.Resyncs, reconnect: h.Reconnects,
	}
}

func runWorkload(name string, seed int64, seconds float64, traced bool) (*result, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	base, err := filepath.Abs(".bench_build")
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(base, "data", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: name, spec: workloads[name], seed: seed,
		seconds: time.Duration(seconds * float64(time.Second)), dir: dir,
		clients: min(2, runtime.NumCPU()),
		layer:   map[string][]float64{}, snapByRev: map[uint64]float64{},
		metrics: map[string]metric{},
	}
	if traced {
		r.tr = newTracer()
	}
	fmt.Printf("# env nproc=%d GOMAXPROCS=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# run workload=%s seed=%d seconds=%g traced=%v\n", name, seed, seconds, traced)
	err = r.spec.run(r)
	if r.st != nil {
		r.st.close()
	}
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		if err := r.writeTrace(base); err != nil {
			return nil, err
		}
	}
	for _, f := range r.failures {
		fmt.Println("# CHECK FAILED:", f)
	}
	attempted, failed := 0, 0
	for _, s := range []*opStats{&r.ops, &r.tracedOps, &r.writes} {
		a, f := s.counts()
		attempted, failed = attempted+a, failed+f
	}
	fmt.Printf("# ops attempted=%d failed=%d failed_ops_ratio=%.4g\n", attempted, failed, float64(failed)/math.Max(1, float64(attempted)))
	return &result{Correct: len(r.failures) == 0, Attempted: attempted, Failed: failed, Metrics: r.metrics}, nil
}

// fail records a failed correctness check.
func (r *run) fail(format string, args ...any) {
	r.checkMu.Lock()
	defer r.checkMu.Unlock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setup builds the workload setupReps times from scratch — a fresh
// primary and its follower, the workload's data, the follower caught up
// on it, and any warm-up the workload needs before serving — keeping
// the last stack for the measured loop. The follower joins the empty
// primary and receives the data through the change feed, as a replica
// started with its primary does.
func (r *run) setup(populate func(st *stack) error) error {
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(r.dir, strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		// Collect the previous set-up's garbage first, so no set-up pays
		// for another's.
		runtime.GC()
		t0, cpu0 := time.Now(), processCPU()
		st, err := newStack(dir)
		if err != nil {
			return err
		}
		if err := st.follow(dir); err != nil {
			st.close()
			return err
		}
		if err := populate(st); err != nil {
			st.close()
			return err
		}
		if err := st.caughtUp(); err != nil {
			st.close()
			return err
		}
		r.setupS = append(r.setupS, (processCPU() - cpu0).Seconds())
		r.setupWallS = append(r.setupWallS, time.Since(t0).Seconds())
		if i < setupReps-1 {
			st.close()
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		r.st = st
	}
	s := append([]float64(nil), r.setupS...)
	sort.Float64s(s)
	if r.tr == nil {
		r.put("setup_s", s[len(s)/2], "s")
	}
	fmt.Printf("# set-ups: process CPU s %s; wall clock s (not gated) %s\n", fmtList(r.setupS), fmtList(r.setupWallS))
	r.heap()
	return nil
}

// describe prints the facts a reader needs to compare runs: the load
// shape and the flush policy.
func (r *run) describe(clients int, writeShare, detail string) {
	fmt.Printf("# workload %s: clients=%d loop=closed, paced at %g ops/s per client; write_share=%s; %s\n",
		r.workload, clients, r.spec.pace, writeShare, detail)
	fmt.Println("# flush policy: primary log backend without fsync per append (plusd -sync=false default); follower log backend without fsync, flush on sync, no coalesce")
}

// storeLine prints the primary's size.
func (r *run) storeLine(when string) {
	fmt.Printf("# store %s: objects=%d edges=%d revision=%d log_bytes=%d\n",
		when, r.st.backend.NumObjects(), r.st.backend.NumEdges(), r.st.backend.Revision(), r.st.raw.Size())
}

// loop runs the paced closed loops: each client issues its next op once
// the previous one has returned and its next slot (one every 1/pace s,
// the clients' slots staggered) has come, until the run's time is up. A
// client behind its schedule goes at once but never bursts to catch up.
// The pace keeps the machine below saturation, so each run does the same
// work in each window whatever CPU the host lends it, and the store grows
// the same way on a fast run as on a slow one. In a traced run a coin of
// the client's own picks half the ops to trace, so traced and untraced
// ops of the same mix interleave and their difference is the tracing
// overhead. (A coin, not every other op: ops follow the write period, and
// parity would trace every read after a write.)
func (r *run) loop(clients []*client, step func(cl *client, n int, traced bool)) {
	r.cpuMarks[0] = processCPU()
	start := time.Now()
	r.loopStart = start
	deadline := start.Add(r.seconds)
	// Read the CPU clock at each inner window boundary.
	marksDone := make(chan struct{})
	stopMarks := make(chan struct{})
	go func() {
		defer close(marksDone)
		for k := 1; k < windows; k++ {
			t := time.NewTimer(time.Until(start.Add(r.seconds * time.Duration(k) / windows)))
			select {
			case <-t.C:
				r.cpuMarks[k] = processCPU()
			case <-stopMarks:
				t.Stop()
				return
			}
		}
	}()
	period := time.Duration(float64(time.Second) / r.spec.pace)
	var late, issued atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			coin := rand.New(rand.NewSource(r.seed*1000 + 500 + int64(cl.id)))
			next := start.Add(period * time.Duration(cl.id) / time.Duration(len(clients)))
			for n := 0; ; n++ {
				now := time.Now()
				if wait := next.Sub(now); wait > 0 {
					time.Sleep(wait)
				} else if n > 0 {
					late.Add(1)
				}
				if !time.Now().Before(deadline) {
					return
				}
				issued.Add(1)
				step(cl, n, r.tr != nil && coin.Intn(2) == 0)
				if next = next.Add(period); next.Before(time.Now()) {
					next = time.Now()
				}
			}
		}(cl)
	}
	wg.Wait()
	close(stopMarks)
	<-marksDone
	r.elapsed = time.Since(start)
	r.cpuMarks[windows] = processCPU()
	fmt.Printf("# pace: %d of %d ops started behind their slot\n", late.Load(), issued.Load())
}

// client is one closed-loop load client.
type client struct {
	c      *plusclient.Client
	token  string
	viewer string
	rng    *rand.Rand
	id     int

	// seen remembers the timing block of the last answer per lineage
	// key: the cache returns the stored Result, so an answer repeating
	// it verbatim was a hit.
	seen    map[string]plus.LineageTiming
	lastRev uint64
}

func (r *run) newClient(id int, viewer string) (*client, error) {
	c, tok, err := r.st.client(viewer)
	if err != nil {
		return nil, err
	}
	return &client{c: c, token: tok, viewer: viewer, id: id,
		rng:  rand.New(rand.NewSource(r.seed*1000 + int64(id))),
		seen: map[string]plus.LineageTiming{}}, nil
}

// addLayer records one per-layer sample (traced runs).
func (r *run) addLayer(name string, v float64) {
	r.layerMu.Lock()
	r.layer[name] = append(r.layer[name], v)
	r.layerMu.Unlock()
}

func (r *run) put(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// verifyTime measures what the server's auth layer spends on this
// client's token: one Keyring.Verify.
func (r *run) verifyTime(cl *client) time.Duration {
	t := time.Now()
	if _, err := r.st.keyring.Verify(cl.token, t); err != nil {
		r.fail("token of client %d does not verify: %v", cl.id, err)
	}
	return time.Since(t)
}

// storeProbe opens every read op: it reports whether the store moved
// since this client's previous read, and in a traced op then times
// Backend.Snapshot as a child span — the clone every read after a write
// pays, whoever triggers it first.
func (r *run) storeProbe(ot *opTrace, root int, cl *client) (afterWrite bool) {
	rev := r.st.backend.Revision()
	if rev == cl.lastRev {
		return false
	}
	cl.lastRev = rev
	if ot != nil {
		t0 := time.Now()
		r.timeSnapshot()
		ot.add("plus.snapshot", root, t0, time.Now())
	}
	return true
}

// timeSnapshot takes and times one Backend.Snapshot, keeping the
// slowest reading per revision: the one that cloned.
func (r *run) timeSnapshot() {
	t0 := time.Now()
	sn, err := r.st.backend.Snapshot()
	d := time.Since(t0)
	if err != nil {
		r.fail("snapshot: %v", err)
		return
	}
	r.layerMu.Lock()
	if v := ms(d); v > r.snapByRev[sn.Revision()] {
		r.snapByRev[sn.Revision()] = v
	}
	r.layerMu.Unlock()
}

// lineageOp runs one backward lineage request and checks its answer.
func (r *run) lineageOp(cl *client, q plusclient.LineageRequest, stats *opStats, traced bool, kind string) *plus.LineageResponse {
	var ot *opTrace
	if traced {
		ot = r.tr.begin(kind)
	}
	t0 := time.Now()
	root := ot.add("op.lineage", -1, t0, t0) // end fixed below
	r.storeProbe(ot, root, cl)
	t1 := time.Now()
	resp, err := cl.c.Lineage(context.Background(), q)
	t2 := time.Now()
	stats.record(t0.Sub(r.loopStart), t2.Sub(t0), err)
	if err != nil {
		return nil
	}
	r.checkLineage(cl, resp)
	key := q.Start + "|" + q.Mode
	hit := cl.seen[key] == resp.Timing
	cl.seen[key] = resp.Timing
	if ot == nil {
		return resp
	}
	ot.spans[root].End = t2.Sub(ot.t.epoch).Nanoseconds()
	call := ot.add("plusclient.lineage", root, t1, t2)
	verify := r.verifyTime(cl)
	te := time.Now()
	data, err := json.Marshal(resp)
	enc := time.Since(te)
	if err != nil {
		r.fail("re-encode lineage answer: %v", err)
	}
	parts := []part{{name: "auth.verify", d: verify}}
	if hit {
		ot.kind = kind + "_hit"
	} else {
		ot.kind = kind + "_miss"
		util := r.freshUtilities(cl, q)
		tm := resp.Timing
		parts = append(parts,
			part{name: "lineage", d: us(tm.TotalUS), sub: []part{
				{name: "lineage.fetch", d: us(tm.DBAccessUS)},
				{name: "lineage.build", d: us(tm.BuildUS)},
				{name: "lineage.protect", d: us(tm.ProtectUS)},
			}},
			part{name: "measure.utilities", d: util})
		r.addLayer("lineage.fetch_ms", float64(tm.DBAccessUS)/1e3)
		r.addLayer("lineage.build_ms", float64(tm.BuildUS)/1e3)
		r.addLayer("lineage.protect_ms", float64(tm.ProtectUS)/1e3)
		r.addLayer("measure.utilities_ms", ms(util))
	}
	parts = append(parts, part{name: "encode.lineage", d: enc})
	ot.split(call, parts...)
	ot.end()
	self := selfTimes(ot.spans)
	r.addLayer("http.lineage_overhead_ms", float64(self[call])/1e6)
	r.addLayer("http.lineage_response_bytes", float64(len(data)))
	r.addLayer("encode.lineage_us", float64(enc.Microseconds()))
	r.addLayer("auth.verify_us", float64(verify)/1e3)
	return resp
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func us(n int64) time.Duration { return time.Duration(n) * time.Microsecond }

// freshUtilities recomputes a missed answer in-process without the
// cache and times Result.Utilities on it: the §4.1 measures the server
// ran while answering, which no response field reports.
func (r *run) freshUtilities(cl *client, q plusclient.LineageRequest) time.Duration {
	res, err := plus.NewEngine(r.st.backend, r.st.lat).LineageContext(context.Background(), plus.Request{
		Start: q.Start, Direction: graph.Backward, Depth: q.Depth, Viewer: privilegeOf(cl.viewer), Mode: modeOf(q.Mode),
	})
	if err != nil {
		r.fail("in-process lineage of %s: %v", q.Start, err)
		return 0
	}
	r.addLayer("lineage.closure_nodes", float64(res.Spec.Graph.NumNodes()))
	t := time.Now()
	res.Utilities()
	return time.Since(t)
}

// queryOp runs one PLUSQL query.
func (r *run) queryOp(cl *client, src string, stats *opStats, traced bool, kind string) *plusql.QueryResponse {
	var ot *opTrace
	if traced {
		ot = r.tr.begin(kind)
	}
	t0 := time.Now()
	root := ot.add("op.query", -1, t0, t0) // end fixed below
	afterWrite := r.storeProbe(ot, root, cl)
	t1 := time.Now()
	resp, err := cl.c.Query(context.Background(), src, plusclient.QueryOptions{})
	t2 := time.Now()
	stats.record(t0.Sub(r.loopStart), t2.Sub(t0), err)
	if err != nil {
		return nil
	}
	r.checkQueryRows(cl, resp)
	if ot == nil {
		return resp
	}
	ot.spans[root].End = t2.Sub(ot.t.epoch).Nanoseconds()
	if afterWrite {
		ot.kind = kind + "_after_write"
	}
	call := ot.add("plusclient.query", root, t1, t2)
	verify := r.verifyTime(cl)
	parts := []part{{name: "auth.verify", d: verify}}
	if ph := resp.Phases; ph != nil {
		parts = append(parts, part{name: "plusql", d: us(ph.TotalUS), sub: []part{
			{name: "plusql.parse", d: us(ph.ParseUS)},
			{name: "plusql.view", d: us(ph.ViewUS)},
			{name: "plusql.plan", d: us(ph.PlanUS)},
			{name: "plusql.exec", d: us(ph.ExecUS)},
		}})
		r.addLayer("plusql.parse_us", float64(ph.ParseUS))
		r.addLayer("plusql.view_ms", float64(ph.ViewUS)/1e3)
		r.addLayer("plusql.plan_us", float64(ph.PlanUS))
		r.addLayer("plusql.exec_us", float64(ph.ExecUS))
	} else {
		r.fail("query answer without phases")
	}
	r.addLayer("plusql.rows", float64(len(resp.Rows)))
	ot.split(call, parts...)
	ot.end()
	self := selfTimes(ot.spans)
	r.addLayer("http.plusql_overhead_us", float64(self[call])/1e3)
	r.addLayer("auth.verify_us", float64(verify)/1e3)
	return resp
}

// batchOp posts one batch, checks the acknowledgement and hands the
// acknowledged revision to the follower-lag watcher.
func (r *run) batchOp(cl *client, b plus.Batch, stats *opStats, traced bool) {
	var ot *opTrace
	var ap0 obs.HistSnapshot
	apply := r.st.reg.HistogramVec("plus_backend_op_seconds", "", obs.ScaleNanos, "op").With("apply")
	if traced {
		ot = r.tr.begin("batch")
		ap0 = apply.Snapshot()
	}
	t0 := time.Now()
	resp, err := cl.c.Batch(context.Background(), plusclient.BatchRequest{Objects: b.Objects, Edges: b.Edges, Surrogates: b.Surrogates})
	t1 := time.Now()
	stats.recordWrite(t0.Sub(r.loopStart), t1.Sub(t0), b.Len(), err)
	if err != nil {
		return
	}
	if resp.Objects != len(b.Objects) || resp.Edges != len(b.Edges) || resp.Surrogates != len(b.Surrogates) {
		r.fail("batch ack %d/%d/%d records, sent %d/%d/%d", resp.Objects, resp.Edges, resp.Surrogates,
			len(b.Objects), len(b.Edges), len(b.Surrogates))
	}
	r.records.Add(int64(b.Len()))
	r.st.lag.expect(resp.Revision, t0)
	if ot == nil {
		return
	}
	ap1 := apply.Snapshot()
	tc := time.Now()
	if _, err := r.st.backend.ChangesSince(resp.Revision - uint64(b.Len())); err != nil {
		r.fail("changes since batch at rev %d: %v", resp.Revision, err)
	}
	r.addLayer("plus.changes_since_us", float64(time.Since(tc))/1e3)
	root := ot.add("op.batch", -1, t0, t1)
	call := ot.add("plusclient.batch", root, t0, t1)
	parts := []part{{name: "auth.verify", d: r.verifyTime(cl)}}
	if n := ap1.Count - ap0.Count; n > 0 {
		// Concurrent writers share the window; each is charged the mean.
		parts = append(parts, part{name: "plus.apply", d: time.Duration((ap1.Sum - ap0.Sum) / n)})
	}
	ot.split(call, parts...)
	ot.end()
}

// probe runs, in a traced run, a few ops of each op family the
// workload's traffic bypasses, so every per-layer metric is measured on
// every workload. Their latencies stay out of the end-to-end figures.
func (r *run) probe(cl *client, lineageStarts []string, queries []string) {
	if r.tr == nil {
		return
	}
	r.before = r.readCounters()
	var discard opStats
	for _, fam := range r.spec.bypassed {
		switch fam {
		case "lineage":
			for _, s := range lineageStarts {
				r.lineageOp(cl, plusclient.LineageRequest{Start: s, Depth: 2}, &discard, true, "probe_lineage")
			}
		case "query":
			for _, q := range queries {
				r.queryOp(cl, q, &discard, true, "probe_query")
			}
		}
	}
	if _, failed := discard.counts(); failed > 0 {
		r.fail("%d probe ops failed", failed)
	}
}

// finish computes the metrics of the run once the loop has ended.
func (r *run) finish() {
	if err := r.st.lag.waitDrained(30 * time.Second); err != nil {
		r.fail("%v", err)
	}
	secs := r.elapsed.Seconds()
	ops := r.ops.summary(r.seconds)
	writes, writesFailed := r.writes.counts()
	fmt.Printf("# loop: %.3f s, %s ops %d (failed %d), batch writes %d (failed %d), records acked %d\n",
		secs, r.spec.op, ops.N, ops.Failed, writes, writesFailed, r.records.Load())
	cpu := r.cpuMarks[windows] - r.cpuMarks[0]
	fmt.Printf("# loop cpu: %.1f s of process CPU, %.2f of %d CPUs busy (CPU time the host steals counts as idle)\n",
		cpu.Seconds(), cpu.Seconds()/secs, runtime.NumCPU())
	lc, vc := r.st.lineage.Stats(), r.st.query.CacheStats()
	fmt.Printf("# caches over set-up and loop: lineage %d hits, %d misses, %d delta evictions, %d wipes; views %d hits, %d advanced, %d account rebuilds, %d full builds, %d fallbacks\n",
		lc.Hits, lc.Misses, lc.DeltaEvictions, lc.Wipes, vc.Hits, vc.Advanced, vc.AdvanceRebuilds, vc.FullBuilds, vc.Fallbacks)

	lags := r.st.lag.samples()
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	lt, lpct, lagOK := tail(lags, minBeyond)
	if lagOK {
		fmt.Printf("# follower lag: p50 %.3f ms, p%.2f %.3f ms over %d acknowledged writes (%d beyond it)\n",
			ms(median(lags)), lpct, ms(lt), len(lags), minBeyond)
	}
	if r.tr != nil {
		if lagOK {
			r.put("replica.lag_p50_ms", ms(median(lags)), "ms")
			r.put("replica.lag_tail_ms", ms(lt), "ms")
		} else {
			r.fail("only %d follower lag samples: too few for a tail percentile", len(lags))
		}
		r.perLayer()
		return
	}
	opsN, _ := windowCounts(r.seconds, &r.ops)
	_, recAll := windowCounts(r.seconds, &r.ops, &r.writes)
	cpuPerOp := make([]float64, windows)
	for w := range cpuPerOp {
		cpuPerOp[w] = ms(r.cpuMarks[w+1]-r.cpuMarks[w]) / math.Max(1, opsN[w])
	}
	if ok := float64(ops.N - ops.Failed); ok > 0 {
		r.put("cpu_ms_per_op", ms(cpu)/ok, "ms")
	} else {
		r.fail("no successful %s op in the loop", r.spec.op)
	}
	fmt.Printf("# cpu_ms_per_op is the loop's process CPU time over its %d successful %s ops; per window %s\n",
		ops.N-ops.Failed, r.spec.op, fmtList(cpuPerOp))
	// Wall-clock figures move with the CPU the host steals, by up to 40%
	// between back-to-back runs of the same seed on a shared 2-vCPU
	// machine, so they are printed for the reader and not reported.
	winSecs := r.seconds.Seconds() / windows
	if ops.HasTail {
		fmt.Printf("# wall clock (not gated): %s p50 %.3f ms, p%.2f %.3f ms (medians over %d windows, %d ops beyond each tail); per window p50 ms %s\n",
			r.spec.op, ms(ops.P50), ops.TailPct, ms(ops.Tail), windows, minBeyond, fmtList(ops.WindowP50))
	}
	fmt.Printf("# wall clock (not gated): %.4g %s ops/s, %.4g records/s (median window); per window ops %s, records %s over %.3g s each\n",
		medianOf(opsN)/winSecs, r.spec.op, medianOf(recAll)/winSecs, fmtList(opsN), fmtList(recAll), winSecs)
}

// heap reports the live heap after a forced collection, taken once the
// workload is set up: with the store at its set-up size, a faster ingest
// loop cannot read as a bigger heap.
func (r *run) heap() {
	if r.tr != nil {
		return
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.put("live_heap_mb", float64(m.HeapAlloc)/1e6, "MB")
}

func (r *run) perLayer() {
	// The loop ended on writes; the next read would clone the store.
	r.timeSnapshot()
	after := r.readCounters()
	b := r.before
	mean := func(name string) float64 {
		r.layerMu.Lock()
		defer r.layerMu.Unlock()
		return meanOf(r.layer[name])
	}
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	lh, lm := after.lineage.Hits-b.lineage.Hits, after.lineage.Misses-b.lineage.Misses
	vh, vm := after.view.Hits-b.view.Hits, after.view.Misses-b.view.Misses
	r.put("measure.utilities_ms", mean("measure.utilities_ms"), "ms")
	r.put("lineage.fetch_ms", mean("lineage.fetch_ms"), "ms")
	r.put("lineage.build_ms", mean("lineage.build_ms"), "ms")
	r.put("lineage.protect_ms", mean("lineage.protect_ms"), "ms")
	r.put("lineage.closure_nodes", mean("lineage.closure_nodes"), "count")
	r.put("lineage.cache_hit_ratio", ratio(lh, lh+lm), "ratio")
	r.put("lineage.delta_evictions", float64(after.lineage.DeltaEvictions-b.lineage.DeltaEvictions), "count")
	r.put("lineage.wipes", float64(after.lineage.Wipes-b.lineage.Wipes), "count")
	r.put("http.lineage_overhead_ms", mean("http.lineage_overhead_ms"), "ms")
	r.put("http.lineage_response_bytes", mean("http.lineage_response_bytes"), "bytes")
	r.put("encode.lineage_us", mean("encode.lineage_us"), "us")
	r.put("http.plusql_overhead_us", mean("http.plusql_overhead_us"), "us")
	r.put("auth.verify_us", mean("auth.verify_us"), "us")
	r.layerMu.Lock()
	snaps := make([]float64, 0, len(r.snapByRev))
	for _, v := range r.snapByRev {
		snaps = append(snaps, v)
	}
	r.layerMu.Unlock()
	r.put("plus.snapshot_ms", meanOf(snaps), "ms")
	r.put("plus.changes_since_us", mean("plus.changes_since_us"), "us")
	r.put("plus.index_advances", float64(after.index.Advances-b.index.Advances), "count")
	r.put("plus.index_rebuilds", float64(after.index.Rebuilds-b.index.Rebuilds), "count")
	r.put("plusql.view_ms", mean("plusql.view_ms"), "ms")
	r.put("plusql.view_hit_ratio", ratio(vh, vh+vm), "ratio")
	r.put("plusql.view_advanced", float64(after.view.Advanced-b.view.Advanced), "count")
	r.put("plusql.view_full_builds", float64(after.view.FullBuilds-b.view.FullBuilds), "count")
	r.put("plusql.view_fallbacks", float64(after.view.Fallbacks-b.view.Fallbacks), "count")
	r.put("plusql.parse_us", mean("plusql.parse_us"), "us")
	r.put("plusql.plan_us", mean("plusql.plan_us"), "us")
	r.put("plusql.exec_us", mean("plusql.exec_us"), "us")
	r.put("plusql.rows", mean("plusql.rows"), "count")
	r.put("account.spec_build_ms", mean("account.spec_build_ms"), "ms")
	r.put("account.generate_ms", mean("account.generate_ms"), "ms")
	r.put("plus.apply_us", float64(after.applyNs-b.applyNs)/math.Max(1, float64(after.applyN-b.applyN))/1e3, "us")
	r.put("plus.log_bytes_per_record", float64(after.logBytes-b.logBytes)/math.Max(1, float64(after.records-b.records)), "bytes")
	r.put("replica.events_per_batch", float64(after.applied-b.applied)/math.Max(1, float64(after.batches-b.batches)), "count")
	r.put("replica.resyncs", float64(after.resyncs-b.resyncs), "count")
	r.put("replica.reconnects", float64(after.reconnect-b.reconnect), "count")
	r.put("intern.bytes", float64(intern.Bytes()), "bytes")
	r.put("trace.overhead_pct", r.traceOverhead(), "%")
}

// traceOverhead compares the mean latency of the traced and the
// untraced main ops of the same interleaved loop.
func (r *run) traceOverhead() float64 {
	t, u := r.tracedOps.meanOK(), r.ops.meanOK()
	if t == 0 || u == 0 {
		return 0
	}
	return 100 * (t - u) / u
}

// statsFor returns where a main op's latency goes: a traced run keeps
// its traced and untraced halves apart for the overhead figure.
func (r *run) statsFor(traced bool) *opStats {
	if traced {
		return &r.tracedOps
	}
	return &r.ops
}

func (r *run) writeTrace(base string) error {
	kbs := r.tr.breakdown()
	printBreakdown(kbs)
	dir := filepath.Join(base, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	if err := r.tr.write(path); err != nil {
		return err
	}
	fmt.Printf("# spans written to %s\n", path)
	return nil
}
