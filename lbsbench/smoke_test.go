package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// Every workload and metric name is one token of [A-Za-z0-9_.-], and
// BENCHMARK.json lists exactly the workloads this program runs.
func TestNames(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	var listed []string
	for _, w := range f.Workloads {
		listed = append(listed, w.Name)
	}
	if !equalSets(names, listed) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", listed, names)
	}
	for _, e := range f.EndToEnd {
		names = append(names, e.Name)
	}
	for _, p := range f.PerLayer {
		names = append(names, p.Name)
	}
	names = append(names, cpuLayers...)
	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) || len(n) > 64 {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func metricNames(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// A seconds-long run of every workload, measured and traced, at a
// twentieth of the population: the gates pass and the metric names
// match BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds rexpd and runs every workload")
	}
	f := loadBenchmarkFile(t)
	var e2e, layer []string
	for _, e := range f.EndToEnd {
		e2e = append(e2e, e.Name)
	}
	for _, p := range f.PerLayer {
		layer = append(layer, p.Name)
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "rexpd")
	if out, err := exec.Command("go", "build", "-o", bin, "rexptree/cmd/rexpd").CombinedOutput(); err != nil {
		t.Fatalf("building rexpd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		spec := *w
		spec.Objects = max(1000, w.Objects/20)
		for trace := 0; trace <= 1; trace++ {
			rep := &report{Config: hostConfig(&spec, 3, 2, trace)}
			var res result
			var err error
			if trace == 1 {
				res, err = runTraced(&spec, 3, 2, dir, rep, t.Logf)
			} else {
				res, err = runMeasured(&spec, 3, 2, bin, dir, rep, t.Logf)
			}
			if err != nil {
				t.Fatalf("%s trace %d: %v", spec.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed; details %v", spec.Name, trace, res.Correct, res.Failed, res.Attempted, rep.Details)
			}
			want := e2e
			if trace == 1 {
				want = layer
			}
			if got := metricNames(res.Metrics); !equalSets(got, want) {
				t.Errorf("%s trace %d: metrics %v, BENCHMARK.json lists %v", spec.Name, trace, got, want)
			}
		}
	}
}
