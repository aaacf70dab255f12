package tmk_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// TestJacobiFlushesOnlySharedPages runs Jacobi under home-based LRC on
// rdmagm with 4 ranks on a 64×64 grid (8 rows per page), so band edges
// fall inside pages. With homes placed by block, a rank's own band pages
// are homed at itself and each sweep flushes exactly the pages it writes
// that another band also writes and that are homed there. The count is
// taken as the difference between two run lengths, which cancels the
// set-up epoch's boundary writes.
func TestJacobiFlushesOnlySharedPages(t *testing.T) {
	const (
		n     = 64
		procs = 4
	)
	rowBytes := n * 8
	pagesPerGrid := n * rowBytes / tmk.PageSize
	written := make([]map[int]bool, procs) // rank → grid-relative pages it writes
	for r := range written {
		lo, hi := band(1, n-1, r, procs)
		written[r] = map[int]bool{}
		for i := lo; i < hi; i++ {
			first := (i*n + 1) * 8 / tmk.PageSize
			last := ((i*n+n-1)*8 - 1) / tmk.PageSize
			for p := first; p <= last; p++ {
				written[r][p] = true
			}
		}
	}
	perSweep := 0
	for r := range written {
		for p := range written[r] {
			home := p * procs / pagesPerGrid
			if home == r {
				continue
			}
			if !written[home][p] {
				t.Fatalf("rank %d writes page %d homed at %d, which does not write it", r, p, home)
			}
			perSweep++
		}
	}
	if perSweep == 0 {
		t.Fatal("geometry has no shared pages; the test would prove nothing")
	}

	flushes := func(iters int) int64 {
		app := &apps.Jacobi{N: n, Iters: iters, CostPerPoint: 30 * sim.Nanosecond}
		res, err := tmk.Run(tmk.DefaultConfig(procs, tmk.TransportRDMAGM), app.Run)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.HomeFlushes
	}
	const extra = 4
	got := flushes(4+extra) - flushes(4)
	if want := int64(extra * perSweep); got != want {
		t.Errorf("%d extra sweeps issued %d home flushes, want %d (%d shared pages per sweep)",
			extra, got, want, perSweep)
	}
}

// band mirrors the applications' block-row decomposition of [lo, hi).
func band(lo, hi, rank, n int) (int, int) {
	base, rem := (hi-lo)/n, (hi-lo)%n
	start := lo + rank*base + min(rank, rem)
	end := start + base
	if rank < rem {
		end++
	}
	return start, end
}
