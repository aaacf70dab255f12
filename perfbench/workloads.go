package main

import (
	"fmt"
	"sort"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// simSpec is one simulation of a workload: a program run on a cluster of
// procs ranks over one substrate with that substrate's default Config.
type simSpec struct {
	name  string // metric suffix: an app name or a microbenchmark name
	procs int
	kind  tmk.TransportKind
	prog  program
}

// workload is a named list of simulations run one after another.
type workload struct {
	name string
	sims []simSpec
}

// Application instances shared by the app workloads: Jacobi, 3D-FFT and
// TSP at their Figure 4 sizes, SOR at the smallest Table 1 rung.
func paperApps() []apps.App {
	return []apps.App{
		apps.DefaultJacobi(),
		&apps.SOR{M: 256, N: 128, Iters: 10, Omega: 1.25, CostPerPoint: 140 * sim.Nanosecond},
		apps.DefaultFFT3D(),
		apps.DefaultTSP(),
	}
}

// smallApps are the smoke-test sizes: the same code paths in milliseconds.
func smallApps() []apps.App {
	return []apps.App{
		&apps.Jacobi{N: 64, Iters: 3, CostPerPoint: 120 * sim.Nanosecond},
		&apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 140 * sim.Nanosecond},
		&apps.FFT3D{Z: 8, Iters: 1, CostPerButterfly: 180 * sim.Nanosecond},
		&apps.TSP{Cities: 8, PrefixDepth: 3, CostPerNode: 40 * sim.Nanosecond},
	}
}

// Figure 3 microbenchmark parameters: repetitions and pages per run.
const (
	barrierReps = 10
	lockReps    = 10
	gatherPages = 16
)

// ubenchSims returns the three Figure 3 microbenchmarks on n ranks; the
// diff gather uses every other rank as a writer.
func ubenchSims(n int, kind tmk.TransportKind, reps, pages int) []simSpec {
	return []simSpec{
		{"barrier", n, kind, barrierProg{reps: reps}},
		{"lock_indirect", n, kind, lockIndirectProg{reps: reps}},
		{"diff_gather", n, kind, diffGatherProg{pages: pages, writers: n - 1}},
	}
}

// appSims returns one simulation per app on n ranks.
func appSims(as []apps.App, n int, kind tmk.TransportKind) []simSpec {
	out := make([]simSpec, 0, len(as))
	for _, a := range as {
		out = append(out, simSpec{a.Name(), n, kind, newAppProg(a)})
	}
	return out
}

// workloads returns every workload. small selects the smoke-test sizes:
// 4 ranks everywhere, small app inputs, and short microbenchmark loops.
//
// Every workload runs all four apps and all three microbenchmarks, so
// every end-to-end metric exists on every workload. The scale workload
// runs its microbenchmarks at 64 ranks and its apps at the Figure 4
// 16-rank point (SOR at 64 ranks overflows the barrier-release message;
// see NOTES.md).
func workloads(small bool) []workload {
	as, n16, n64, reps, pages := paperApps(), 16, 64, barrierReps, gatherPages
	if small {
		as, n16, n64, reps, pages = smallApps(), 4, 4, 3, 4
	}
	mk := func(name string, appN, ubN int, kind tmk.TransportKind) workload {
		return workload{name, append(appSims(as, appN, kind), ubenchSims(ubN, kind, reps, pages)...)}
	}
	return []workload{
		mk("fig4-fastgm16", n16, n16, tmk.TransportFastGM),
		mk("fig4-udpgm16", n16, n16, tmk.TransportUDPGM),
		mk("hlrc-rdmagm16", n16, n16, tmk.TransportRDMAGM),
		mk("scale-fastgm64", n16, n64, tmk.TransportFastGM),
	}
}

func findWorkload(name string, small bool) (workload, error) {
	var names []string
	for _, w := range workloads(small) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
