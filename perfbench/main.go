// Command perfbench is the repository's benchmark. It runs one named
// workload — a fixed list of simulations of the TreadMarks stack, one
// after another in this process — checks every simulated result against
// its sequential reference, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced
// over --seconds of repeated passes; with --trace 1 a single traced pass
// gives the per-layer ones. BENCHMARK.json at the repository root lists
// both sets; NOTES.md explains the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fig4-fastgm16 --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/trace"
	"repro/internal/ubench"
)

func main() {
	// The simulator runs one simulated process at a time. With a second P
	// the collector's idle mark workers add CPU time that varies with how
	// long each cycle lasts; with one P the measured CPU time is the
	// simulation's own work, and it repeats more closely on a shared host.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Every untraced run makes at least minPasses passes, however long they
// take. setup_s is the median of setupPasses set-up-only passes that
// follow them: a fixed count of one kind of sample, as set-up measured
// inside full passes runs on a heap in another state.
const (
	minPasses   = 2
	setupPasses = 10
)

// metric is one printed value.
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

// tally counts simulations attempted and failed, and logs each failure.
type tally struct {
	attempted, failed int
	log               io.Writer
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(t.log, "FAIL:", err)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see NOTES.md)")
	seed := fs.Int64("seed", 1, "seed passed to every simulation as Config.Seed")
	seconds := fs.Float64("seconds", 10, "untraced measuring time; passes repeat until it is used")
	traced := fs.Int("trace", 0, "1: one traced pass that prints the per-layer metrics")
	selftest := fs.Bool("selftest", false, "also compare every virtual result with harness.RunApp and package ubench")
	small := fs.Bool("small", false, "smoke-test sizes: 4 ranks and small inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	w, err := findWorkload(*name, *small)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	t := &tally{log: stderr}
	var ms map[string]metric
	if *traced == 1 {
		ms, err = tracedRun(w, *seed, t)
	} else {
		ms = untracedRuns(w, *seed, time.Duration(*seconds*float64(time.Second)), t)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *selftest {
		selfTest(w, *seed, t)
	}
	printTable(stdout, ms)
	out, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// pass runs every simulation of w once and records each outcome. A
// simulation whose virtual result differs from ref's (when given) fails:
// the simulator is deterministic, so any difference is a defect.
func pass(w workload, o simOpts, ref []simResult, t *tally) []simResult {
	rs := make([]simResult, len(w.sims))
	for i, s := range w.sims {
		r := runSim(s, o)
		if r.err == nil && ref != nil && (r.virtual != ref[i].virtual || r.perOp != ref[i].perOp) {
			r.err = fmt.Errorf("%s: virtual result %v differs from the reference pass's %v", s.name, r.virtual, ref[i].virtual)
		}
		if r.err == nil && o.traced {
			var sum int64
			for _, v := range r.crit {
				sum += v
			}
			if sum != int64(r.virtual) {
				r.err = fmt.Errorf("%s: critical path sums to %dns, timed total is %dns", s.name, sum, r.virtual)
			}
		}
		t.record(r.err)
		rs[i] = r
	}
	return rs
}

// untracedRuns repeats passes until d has elapsed (at least minPasses) and
// reports the end-to-end metrics: virtual times from the first pass,
// host-side figures as medians over passes, set-up time as the median of
// the set-up-only passes.
func untracedRuns(w workload, seed int64, d time.Duration, t *tally) map[string]metric {
	var first []simResult
	var hostS, setupS, allocMB, liveMB []float64
	start := time.Now()
	for len(hostS) < minPasses || time.Since(start) < d {
		rs := pass(w, simOpts{seed: seed}, first, t)
		if first == nil {
			first = rs
		}
		var host, setup time.Duration
		var alloc, live uint64
		for _, r := range rs {
			host += r.host
			setup += r.setup
			alloc += r.alloc
			live = max(live, r.liveHeap)
		}
		hostS = append(hostS, host.Seconds())
		allocMB = append(allocMB, mib(alloc))
		liveMB = append(liveMB, mib(live))
		fmt.Fprintf(t.log, "pass %d: host %.3fs setup %.3fs alloc %.0fMiB live %.0fMiB\n",
			len(hostS), host.Seconds(), setup.Seconds(), mib(alloc), mib(live))
	}
	rss := peakRSSMiB()
	for len(setupS) < setupPasses {
		var setup time.Duration
		for _, s := range w.sims {
			setup += runSim(s, simOpts{seed: seed, setupOnly: true}).setup
		}
		setupS = append(setupS, setup.Seconds())
		fmt.Fprintf(t.log, "set-up-only pass: setup %.3fs\n", setup.Seconds())
	}
	ms := virtualMetrics(w, first)
	ms["host_s"] = metric{median(hostS), "s"}
	ms["setup_s"] = metric{median(setupS), "s"}
	ms["alloc_mb"] = metric{median(allocMB), "MiB"}
	ms["live_heap_mb"] = metric{median(liveMB), "MiB"}
	ms["peak_rss_mb"] = metric{rss, "MiB"}
	return ms
}

// virtualMetrics are the virtual-time results: app execution times in
// ms and microbenchmark per-operation times in µs.
func virtualMetrics(w workload, rs []simResult) map[string]metric {
	ms := make(map[string]metric)
	for i, r := range rs {
		if w.sims[i].prog.ops() > 0 {
			ms[r.name+"_us"] = metric{float64(r.perOp) / 1e3, "virtual-us"}
		} else {
			ms["exec_ms."+r.name] = metric{float64(r.virtual) / 1e6, "virtual-ms"}
		}
	}
	return ms
}

// critNames maps the critical-path categories to metric names.
var critNames = map[string]string{
	trace.CatCompute: "compute", trace.CatWire: "wire", trace.CatGM: "gm",
	trace.CatManager: "manager", trace.CatStraggler: "straggler",
}

// tracedRun makes three passes: untraced under the CPU profiler (the
// per-package CPU shares; it also brings the heap to its working size),
// untraced (the reference for the virtual results and for
// trace.overhead_s), and traced with a trace.Tracer and a trace.Causal
// (the per-layer counters and critical paths). The profiles are kept in
// a fresh directory under the temporary directory, which run.sh places
// in .bench_build.
func tracedRun(w workload, seed int64, t *tally) (map[string]metric, error) {
	profDir, err := os.MkdirTemp("", "perfbench-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(t.log, "CPU profiles in", profDir)
	profiled := make([]simResult, len(w.sims))
	var profiles []string
	for i, s := range w.sims {
		path := filepath.Join(profDir, fmt.Sprintf("%d.%s.pprof", i, s.name))
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		profiled[i] = runSim(s, simOpts{seed: seed, profile: f})
		t.record(profiled[i].err)
		if err := f.Close(); err != nil {
			return nil, err
		}
		profiles = append(profiles, path)
	}
	plain := pass(w, simOpts{seed: seed}, profiled, t)
	tr := pass(w, simOpts{seed: seed, traced: true}, plain, t)
	shares, samples, err := cpuShares(profiles...)
	if err != nil {
		return nil, err
	}

	ms := make(map[string]metric)
	var layers layerSnap
	var hostPlain, hostTraced, timedPlain time.Duration
	for i, r := range tr {
		layers.add(r.layers)
		hostPlain += plain[i].host
		timedPlain += plain[i].host - plain[i].setup
		hostTraced += r.host
		for cat, short := range critNames {
			ms["crit."+short+"_ms."+r.name] = metric{float64(r.crit[cat]) / 1e6, "virtual-ms"}
		}
	}
	for k, v := range layers.counts {
		// Virtual times are counted in ns and printed in ms.
		if ns, ok := strings.CutSuffix(k, "_ns"); ok {
			ms[ns+"_ms"] = metric{float64(v) / 1e6, "virtual-ms"}
			continue
		}
		ms[k] = metric{float64(v), countUnit(k)}
	}
	c := layers.counts
	ms["substrate.bytes_per_put"] = metric{ratio(c["substrate.put_bytes"], c["substrate.puts"]), "B"}
	ms["gm.max_pinned_mb"] = metric{mib(uint64(layers.maxPinned)), "MiB"}
	ms["myrinet.link_occ_p99_ns"] = metric{float64(layers.linkOcc.P99()), "virtual-ns"}
	ms["sim.host_ns_per_event"] = metric{ratio(timedPlain.Nanoseconds(), c["sim.events"]), "ns"}
	for p, v := range shares {
		ms["host.cpu."+p] = metric{v, "%"}
	}
	ms["host.cpu.samples"] = metric{float64(samples), "count"}
	ms["trace.overhead_s"] = metric{(hostTraced - hostPlain).Seconds(), "s"}
	return ms, nil
}

// countUnit is the unit of a per-layer counter.
func countUnit(name string) string {
	if strings.HasSuffix(name, "bytes") {
		return "B"
	}
	return "count"
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// selfTest reruns every simulation through the repository's own entry
// points — harness.RunApp for apps, package ubench for microbenchmarks —
// and requires the benchmark's virtual result to equal theirs exactly.
func selfTest(w workload, seed int64, t *tally) {
	mine := pass(w, simOpts{seed: seed}, nil, t)
	for i, s := range w.sims {
		cfg := tmk.DefaultConfig(s.procs, s.kind)
		cfg.Seed = seed
		var want sim.Time
		var err error
		switch p := s.prog.(type) {
		case appProg:
			var res *tmk.Result
			res, err = harness.RunApp(p.app, s.procs, s.kind, func(c *tmk.Config) { c.Seed = seed })
			if res != nil {
				want = res.ExecTime
			}
		case barrierProg:
			want, err = per(ubench.Barrier(cfg, p.reps))
		case lockIndirectProg:
			want, err = per(ubench.LockIndirect(cfg, p.reps))
		case diffGatherProg:
			want, err = per(ubench.DiffMultiWriter(cfg, p.pages, p.writers))
		default:
			err = fmt.Errorf("no reference for %T", p)
		}
		got := mine[i].virtual
		if s.prog.ops() > 0 {
			got = mine[i].perOp
		}
		if err == nil && got != want {
			err = fmt.Errorf("benchmark measured %v, reference %v", got, want)
		}
		if err != nil {
			err = fmt.Errorf("selftest %s: %w", s.name, err)
		}
		t.record(err)
	}
}

func per(r ubench.Result, err error) (sim.Time, error) { return r.Per, err }

// printTable writes every metric, one per line, before the JSON line.
func printTable(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-36s %16.6f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
