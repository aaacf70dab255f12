package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runSmall runs the benchmark at smoke-test sizes and returns its last
// output line, failing the test unless every simulation passed.
func runSmall(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	t.Setenv("TMPDIR", t.TempDir()) // CPU profiles
	args = append([]string{"--small", "--seconds", "0"}, args...)
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v exited %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("run %v: correct=%v attempted=%d failed=%d\n%s", args, r.Correct, r.Attempted, r.Failed, errb.String())
	}
	return r
}

// checkNames requires the printed metrics to be exactly want, unit for unit.
func checkNames(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	var missing, extra []string
	for k, u := range want {
		m, ok := got[k]
		switch {
		case !ok:
			missing = append(missing, k)
		case m.Unit != u:
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", k, m.Unit, u)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		t.Errorf("metrics differ from BENCHMARK.json: missing %v, extra %v", missing, extra)
	}
}

// TestSmoke runs every workload at 4 ranks and small sizes, traced and
// untraced, with the self-test on: every result must check out, the
// printed names and units must be BENCHMARK.json's, and the virtual
// results must repeat exactly from run to run.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	e2e := make(map[string]string)
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := make(map[string]string)
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range workloads(true) {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(specNames, ",") {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", names, specNames)
	}
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			a := runSmall(t, "--workload", w, "--seed", "3", "--selftest")
			checkNames(t, a.Metrics, e2e)
			b := runSmall(t, "--workload", w, "--seed", "4")
			for k, m := range a.Metrics {
				if strings.HasPrefix(m.Unit, "virtual-") && b.Metrics[k] != m {
					t.Errorf("%s: %v with seed 3, %v with seed 4", k, m.Value, b.Metrics[k].Value)
				}
			}
			tr := runSmall(t, "--workload", w, "--seed", "3", "--trace", "1")
			checkNames(t, tr.Metrics, layer)
		})
	}
}

func TestFuncPackage(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/tmk.(*Proc).Barrier":           "tmk",
		"repro/internal/substrate/fastgm.(*T).Call":    "fastgm",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData":   "pprof",
		"sort.Slice": "sort",
		"slices.SortFunc[go.shape.[]repro/internal/tmk.x]": "slices",
		"repro/internal/apps.(*TSP).solve":                 "apps",
		"repro/internal/sim.(*Simulator).RunUntil.func1":   "sim",
		"repro/internal/msg.(*Message).Encode":             "msg",
		"repro/internal/myrinet.(*Fabric).Send":            "myrinet",
	} {
		if got := funcPackage(sym); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", sym, got, want)
		}
	}
}
