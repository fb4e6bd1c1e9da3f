// Command perfbench is the repository's serving benchmark. It assembles
// a primary the way cmd/plusd does by default, with one in-process
// follower, drives it over loopback HTTP with pkg/plusclient from paced closed
// loops, checks that every answer is correct, and prints one JSON result
// line. METRICS.md documents the workloads, the metrics and which layer
// moves which end-to-end figure.
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash perfbench/run.sh --workload lineage_pipeline --seed 1 --seconds 45 --trace 0
//	bash perfbench/run.sh --workload ingest_follow --repeat 10 --seconds 45
//
// --trace 1 makes the traced run: per-layer metrics, a self-time
// breakdown per op kind, and every span written to
// .bench_build/trace/<workload>-seed<seed>.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each end-to-end metric's median and quartile spread next to its bound")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*workload, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runWorkload(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// repeatRuns runs the workload n times as child processes of this
// binary, one seed each, and prints every metric's median and
// interquartile spread (as a share of the median) next to its bound in
// BENCHMARK.json, when the working directory has one.
func repeatRuns(workload string, seed int64, seconds float64, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := readBounds("BENCHMARK.json")
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("seed %d: correct=%v, %d of %d ops failed", s, res.Correct, res.Failed, res.Attempted)
		}
		fmt.Printf("# seed %d: %s\n", s, compact(res.Metrics))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-22s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, name := range names {
		q1, med, q3, err := quartiles(values[name])
		if err != nil {
			return err
		}
		spread := math.NaN()
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		bound := "-"
		if b, ok := bounds[name]; ok {
			bound = strconv.FormatFloat(b, 'f', 3, 64)
		}
		fmt.Printf("%-22s %12.4f %12.4f %12.4f %8.3f %8s  %s\n", name, med, q1, q3, spread, bound, units[name])
	}
	return nil
}

// lastResult parses the result line a run printed last.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

func compact(ms map[string]metric) string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%.4g", n, ms[n].Value)
	}
	return strings.Join(parts, " ")
}

// readBounds loads the end-to-end bounds from BENCHMARK.json (none when
// the file is absent or unreadable: the repeat mode then prints spreads
// alone).
func readBounds(path string) map[string]float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
