package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// timedBarrier closes the timed section; harness.RunApp's implicit final
// barrier sits at the same point, so the app's time is identical.
const timedBarrier int32 = 1<<31 - 2

// simOpts selects how one simulation is observed.
type simOpts struct {
	seed      int64
	traced    bool      // attach a trace.Tracer and a trace.Causal
	setupOnly bool      // stop timing once every rank has entered the body
	profile   io.Writer // CPU-profile the simulation up to the snapshot
}

// simResult is what one simulation measured. Everything but err is taken
// at the snapshot that ends the timed section, before any check runs.
// Host times are process CPU time (see cpuTime).
type simResult struct {
	name     string
	virtual  sim.Time // app: execution time; microbenchmark: timed total
	perOp    sim.Time // microbenchmark: virtual / ops
	setup    time.Duration
	host     time.Duration // set-up plus timed section
	alloc    uint64        // bytes allocated up to the snapshot
	liveHeap uint64        // heap after a forced GC at the snapshot
	crit     map[string]int64
	layers   *layerSnap // traced runs only
	err      error
}

// simState is shared by the ranks of one running simulation. The
// simulator runs one rank at a time, so it needs no locking.
type simState struct {
	spec    simSpec
	opts    simOpts
	c       *tmk.Cluster
	tracer  *trace.Tracer
	causal  *trace.Causal
	n       int
	t0      time.Duration // cpuTime at NewCluster
	alloc0  uint64
	entered int
	exited  int

	setupEnd   time.Duration // cpuTime when the last rank entered the body
	starts     []sim.Time
	ends       []sim.Time
	total      sim.Time
	crit       map[string]int64
	before     layerSnap
	snapped    *sim.Cond
	snapDone   bool
	res        simResult
	checkFails []error
}

func runSim(spec simSpec, o simOpts) simResult {
	cfg := tmk.DefaultConfig(spec.procs, spec.kind)
	cfg.Seed = o.seed
	st := &simState{spec: spec, opts: o, n: spec.procs,
		starts: make([]sim.Time, spec.procs), ends: make([]sim.Time, spec.procs),
		snapped: sim.NewCond("perfbench:snapshot")}
	if o.traced {
		st.tracer, st.causal = trace.New(0), trace.NewCausal()
		st.crit = make(map[string]int64)
		cfg.Trace, cfg.Causal = st.tracer, st.causal
	}
	st.res.name = spec.name

	// Start every simulation from a collected heap, so that no garbage of
	// the previous one (its checks, its teardown) is collected on this
	// one's clock.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.alloc0 = ms.TotalAlloc
	if o.profile != nil {
		if err := pprof.StartCPUProfile(o.profile); err != nil {
			st.res.err = fmt.Errorf("cpu profile: %w", err)
			return st.res
		}
	}
	st.t0 = cpuTime()
	st.c = tmk.NewCluster(cfg)
	_, err := st.c.Run(st.body)
	if o.setupOnly {
		st.res.setup = st.setupEnd - st.t0
		return st.res
	}
	if !st.snapDone && o.profile != nil {
		pprof.StopCPUProfile()
	}
	switch {
	case err != nil:
		st.res.err = fmt.Errorf("%s: %w", spec.name, err)
	case !st.snapDone:
		st.res.err = fmt.Errorf("%s: simulation ended before the snapshot", spec.name)
	case len(st.checkFails) > 0:
		st.res.err = fmt.Errorf("%s: %w", spec.name, st.checkFails[0])
	}
	return st.res
}

// body wraps the program on every rank: count the rank in, run the timed
// work, close it with a barrier, snapshot once every rank is through, and
// only then check the output.
func (st *simState) body(tp *tmk.Proc) {
	st.entered++
	if st.entered == 1 && st.tracer != nil {
		st.before = st.readLayers()
	}
	if st.entered == st.n {
		st.setupEnd = cpuTime()
	}
	if st.opts.setupOnly {
		return
	}
	rc := &rankCtx{st: st}
	start := tp.Now()
	st.spec.prog.run(tp, rc)
	tp.Barrier(timedBarrier)
	st.starts[tp.Rank()], st.ends[tp.Rank()] = start, tp.Now()
	st.exited++
	if st.exited == st.n {
		st.snapshot()
		st.snapDone = true
		st.snapped.Broadcast()
	}
	for !st.snapDone {
		tp.Sim().WaitOn(st.snapped)
	}
	if err := st.spec.prog.check(tp, rc); err != nil {
		st.checkFails = append(st.checkFails, err)
	}
}

// addWindow adds a microbenchmark's timed window and, when the causal
// collector is attached, the critical path that ends it, clipped to it.
func (st *simState) addWindow(rank int, start, end sim.Time) {
	st.total += end - start
	if st.causal != nil {
		st.causal.End(rank, int64(end))
		addClipped(st.crit, st.causal.CriticalPath(), int64(start), int64(end))
	}
}

// addClipped adds the part of each critical-path segment inside
// [lo, hi] to its category. The segments tile [0, EndT], so the clipped
// parts sum to hi-lo exactly when hi == EndT.
func addClipped(into map[string]int64, cp *trace.CriticalPath, lo, hi int64) {
	if cp == nil {
		return
	}
	for _, s := range cp.Segs {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			into[s.Cat] += b - a
		}
	}
}

// snapshot ends the timed section: it runs on the last rank through the
// timed barrier, before any rank starts its check.
func (st *simState) snapshot() {
	hostEnd := cpuTime()
	if st.opts.profile != nil {
		pprof.StopCPUProfile()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := &st.res
	r.setup, r.host, r.alloc = st.setupEnd-st.t0, hostEnd-st.t0, ms.TotalAlloc-st.alloc0
	if ops := st.spec.prog.ops(); ops > 0 {
		r.virtual, r.perOp = st.total, st.total/sim.Time(ops)
	} else {
		lo, hi := st.starts[0], st.ends[0]
		for i := range st.starts {
			r.virtual = max(r.virtual, st.ends[i]-st.starts[i])
			lo, hi = min(lo, st.starts[i]), max(hi, st.ends[i])
		}
		if st.causal != nil {
			for i, e := range st.ends {
				st.causal.End(i, int64(e))
			}
			addClipped(st.crit, st.causal.CriticalPath(), int64(lo), int64(hi))
		}
	}
	if st.tracer != nil {
		after := st.readLayers()
		r.layers = after.minus(&st.before)
		r.crit = st.crit
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.liveHeap = ms.HeapAlloc
}

// cpuTime is the process's user plus system CPU time so far. The
// simulator runs one simulated process at a time, so on an idle host this
// is its wall time plus what the collector does on the other core; unlike
// wall time it leaves out the time other tenants of a shared host hold
// the CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
