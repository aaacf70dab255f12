package main

import (
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// program is the SPMD body of one simulation, split into the timed work
// and the correctness check that runs after the snapshot.
type program interface {
	// run executes the timed work on one rank. A microbenchmark reports
	// each window it times through rc.window; an app times its whole body.
	run(tp *tmk.Proc, rc *rankCtx)
	// check verifies this rank's share of the output. Every rank calls it
	// after the snapshot, so its traffic is in no metric.
	check(tp *tmk.Proc, rc *rankCtx) error
	// ops divides the timed total into a per-operation time; 0 for apps.
	ops() int
}

// rankCtx is one rank's view of the running simulation.
type rankCtx struct {
	st     *simState
	region *tmk.Region // region a microbenchmark's check re-reads
}

// window records a measured window [start, now] on this rank.
func (rc *rankCtx) window(tp *tmk.Proc, start sim.Time) {
	rc.st.addWindow(tp.Rank(), start, tp.Now())
}

// appProg runs one paper application; its check compares the shared
// result with the sequential reference, each rank its own band.
type appProg struct {
	app apps.App
	ref func() any // sequential reference, computed once outside timing
}

func newAppProg(a apps.App) appProg {
	return appProg{app: a, ref: sync.OnceValue(func() any {
		switch a := a.(type) {
		case *apps.Jacobi:
			return a.Sequential()
		case *apps.SOR:
			return a.Sequential()
		case *apps.FFT3D:
			return a.Sequential()
		case *apps.TSP:
			return a.Sequential()
		}
		panic(fmt.Sprintf("perfbench: no reference for %T", a))
	})}
}

func (p appProg) run(tp *tmk.Proc, _ *rankCtx) { p.app.Run(tp) }
func (p appProg) ops() int                     { return 0 }

// band returns this rank's rows of an m-row grid whose interior rows
// [1, m-1) the app block-partitions: the rows it owns, plus the top
// boundary row on rank 0 and the bottom one on the last rank, so that
// together the bands cover every cell.
func band(tp *tmk.Proc, m int) (int, int) {
	r, n := tp.Rank(), tp.NProcs()
	lo, hi := blockRange(1, m-1, r, n)
	if r == 0 {
		lo = 0
	}
	if r == n-1 {
		hi = m
	}
	return lo, hi
}

// blockRange mirrors the apps' split of [lo, hi) into n near-equal blocks.
func blockRange(lo, hi, rank, n int) (int, int) {
	total := hi - lo
	base, rem := total/n, total%n
	start := lo + rank*base + min(rank, rem)
	end := start + base
	if rank < rem {
		end++
	}
	return start, end
}

func compareF64(name string, got, want []float64, off int) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: cell %d = %v, want %v", name, off+i, got[i], want[i])
		}
	}
	return nil
}

func (p appProg) check(tp *tmk.Proc, _ *rankCtx) error {
	switch a := p.app.(type) {
	case *apps.Jacobi:
		// The result is in region Iters%2 (the grids ping-pong).
		lo, hi := band(tp, a.N)
		want := p.ref().([]float64)[lo*a.N : hi*a.N]
		got := tp.ReadF64Span(tp.RegionByID(int32(a.Iters%2)), lo*a.N, len(want))
		return compareF64("jacobi", got, want, lo*a.N)
	case *apps.SOR:
		lo, hi := band(tp, a.M)
		want := p.ref().([]float64)[lo*a.N : hi*a.N]
		got := tp.ReadF64Span(tp.RegionByID(0), lo*a.N, len(want))
		return compareF64("sor", got, want, lo*a.N)
	case *apps.FFT3D:
		// Region 1 holds the output as z x-planes of z*z complex values;
		// each rank checks the planes it wrote.
		lo, hi := blockRange(0, a.Z, tp.Rank(), tp.NProcs())
		plane := a.Z * a.Z
		ref := p.ref().([]complex128)[lo*plane : hi*plane]
		want := make([]float64, 2*len(ref))
		for i, v := range ref {
			want[2*i], want[2*i+1] = real(v), imag(v)
		}
		got := tp.ReadF64Span(tp.RegionByID(1), 2*lo*plane, len(want))
		return compareF64("3dfft", got, want, 2*lo*plane)
	case *apps.TSP:
		if tp.Rank() != 0 {
			return nil
		}
		// Slot 0 of the app's only region is the best tour length.
		want := p.ref().(int32)
		if got := tp.ReadI32(tp.RegionByID(0), 0); got != want {
			return fmt.Errorf("tsp: best tour = %d, want %d", got, want)
		}
		return nil
	}
	return fmt.Errorf("perfbench: no check for %T", p.app)
}

// The microbenchmark bodies below are those of package ubench (Figure 3),
// with the timed windows reported to the runner; the self-test checks
// that their per-operation times equal ubench's exactly.

// barrierProg times reps back-to-back barriers on rank 0.
type barrierProg struct{ reps int }

func (p barrierProg) ops() int { return p.reps }

func (p barrierProg) run(tp *tmk.Proc, rc *rankCtx) {
	tp.Barrier(1)
	start := tp.Now()
	for i := 0; i < p.reps; i++ {
		tp.Barrier(int32(10 + i))
	}
	if tp.Rank() == 0 {
		rc.window(tp, start)
	}
}

// check: every rank writes its own slot of a fresh region, and after a
// barrier rank 0 must see all of them.
func (p barrierProg) check(tp *tmk.Proc, _ *rankCtx) error {
	r := tp.AllocShared(8 * tp.NProcs())
	tp.WriteF64(r, tp.Rank(), float64(tp.Rank()+1))
	tp.Barrier(2_000_000)
	if tp.Rank() != 0 {
		return nil
	}
	for i := 0; i < tp.NProcs(); i++ {
		if got := tp.ReadF64(r, i); got != float64(i+1) {
			return fmt.Errorf("barrier: slot %d = %v, want %v", i, got, float64(i+1))
		}
	}
	return nil
}

// lockIndirectProg times rank 1 acquiring lock 0 (managed by rank 0) after
// rank 2 held it, so the manager forwards the request.
type lockIndirectProg struct{ reps int }

func (p lockIndirectProg) ops() int { return p.reps }

func (p lockIndirectProg) run(tp *tmk.Proc, rc *rankCtx) {
	for i := 0; i < p.reps; i++ {
		if tp.Rank() == 2 {
			tp.LockAcquire(0)
			tp.LockRelease(0)
		}
		tp.Barrier(int32(10 + 2*i))
		if tp.Rank() == 1 {
			start := tp.Now()
			tp.LockAcquire(0)
			rc.window(tp, start)
			tp.LockRelease(0)
		}
		tp.Barrier(int32(11 + 2*i))
	}
}

// check: every rank increments a shared counter under lock 0; rank 0
// must then read exactly one increment per rank.
func (p lockIndirectProg) check(tp *tmk.Proc, _ *rankCtx) error {
	r := tp.AllocShared(8)
	tp.LockAcquire(0)
	tp.WriteI32(r, 0, tp.ReadI32(r, 0)+1)
	tp.LockRelease(0)
	tp.Barrier(2_000_000)
	if tp.Rank() == 0 {
		if got := tp.ReadI32(r, 0); got != int32(tp.NProcs()) {
			return fmt.Errorf("lock counter = %d, want %d", got, tp.NProcs())
		}
	}
	return nil
}

// diffGatherProg is ubench.DiffMultiWriter: writers ranks each dirty a
// disjoint word of every page, and rank 0's timed reads gather one diff
// from every writer per page.
type diffGatherProg struct{ pages, writers int }

func (p diffGatherProg) ops() int { return p.pages }

func (p diffGatherProg) run(tp *tmk.Proc, rc *rankCtx) {
	r := tp.AllocShared(p.pages * tmk.PageSize)
	rc.region = r
	wordsPerPage := tmk.PageSize / 8
	if tp.Rank() <= p.writers {
		for pg := 0; pg < p.pages; pg++ {
			tp.ReadF64(r, pg*wordsPerPage)
		}
	}
	tp.Barrier(1)
	if w := tp.Rank(); w >= 1 && w <= p.writers {
		for pg := 0; pg < p.pages; pg++ {
			tp.WriteF64(r, pg*wordsPerPage+(w-1), float64(pg*p.writers+w))
		}
	}
	tp.Barrier(2)
	if tp.Rank() == 0 {
		start := tp.Now()
		for pg := 0; pg < p.pages; pg++ {
			tp.ReadF64(r, pg*wordsPerPage)
		}
		rc.window(tp, start)
	}
	tp.Barrier(3)
}

// check: rank 0 holds every page after the gather and must see every
// writer's word in each.
func (p diffGatherProg) check(tp *tmk.Proc, rc *rankCtx) error {
	if tp.Rank() != 0 {
		return nil
	}
	wordsPerPage := tmk.PageSize / 8
	for pg := 0; pg < p.pages; pg++ {
		for w := 1; w <= p.writers; w++ {
			want := float64(pg*p.writers + w)
			if got := tp.ReadF64(rc.region, pg*wordsPerPage+(w-1)); got != want {
				return fmt.Errorf("diff gather: page %d writer %d = %v, want %v", pg, w, got, want)
			}
		}
	}
	return nil
}
