package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestTailQuantile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted input
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		q, want  float64
		wantUsed float64
	}{
		{n: 1000, q: 0.95, want: 950, wantUsed: 0.95},
		{n: 200, q: 0.95, want: 190, wantUsed: 0.95},
		{n: 100, q: 0.95, want: 90, wantUsed: 0.90},
		{n: 100, q: 0.50, want: 50, wantUsed: 0.50},
		{n: 12, q: 0.95, want: 6, wantUsed: 0.50},
	} {
		v, used, n := tailQuantile(seq(tc.n), tc.q)
		if n != tc.n || math.Abs(used-tc.wantUsed) > 1e-9 || v != tc.want {
			t.Errorf("tailQuantile(n=%d, q=%v) = (%v, %v, %d), want (%v, %v, %d)",
				tc.n, tc.q, v, used, n, tc.want, tc.wantUsed, tc.n)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if used > 0.5 && beyond < minTail {
			t.Errorf("n=%d q=%v: only %d samples beyond the reported value", tc.n, tc.q, beyond)
		}
	}
	if v, _, n := tailQuantile(nil, 0.95); v != 0 || n != 0 {
		t.Errorf("tailQuantile(nil) = %v, n=%d", v, n)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v", m)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// validMetricName reports whether name is usable as a metric key.
func validMetricName(name string) bool {
	return len(name) <= 64 && metricNameRE.MatchString(name)
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !validMetricName(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricNameRE)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
	}
	for _, bad := range []string{"", "a b", "x/y", "p95%", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the program's metric lists and
// BENCHMARK.json in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.name != w.Name || g.unit != w.Unit || g.better != w.Better {
				t.Errorf("%s[%d]: program %+v, BENCHMARK.json %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", endToEndMetrics, spec.EndToEnd)
	compare("per_layer", perLayerMetrics, spec.PerLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || workloads[w.Name] == nil {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	const n = 256
	a, b, c := genInputs(7, n), genInputs(7, n), genInputs(8, n)
	differ := 0
	sameFilled := 0
	for i := 0; i < n; i++ {
		if a.ids[i] != b.ids[i] || !bytes.Equal(a.pages[i], b.pages[i]) {
			t.Fatalf("page %d differs between two inputs of seed 7", i)
		}
		if len(a.pages[i]) != pageSize {
			t.Fatalf("page %d has %d bytes", i, len(a.pages[i]))
		}
		if !bytes.Equal(a.pages[i], c.pages[i]) {
			differ++
		}
		if bytes.Count(a.pages[i], a.pages[i][:8]) == pageSize/8 {
			sameFilled++
		}
	}
	if differ < n/2 {
		t.Errorf("seeds 7 and 8 share %d of %d pages", n-differ, n)
	}
	if sameFilled == 0 {
		t.Error("no same-filled page in the working set")
	}
	var p, q [demandPerStep]int
	pickDemand(7, 12, &p)
	pickDemand(7, 12, &q)
	if p != q {
		t.Fatalf("pickDemand not deterministic: %v vs %v", p, q)
	}
	seen := map[int]bool{}
	for _, x := range p {
		if x < 0 || x >= batchPages || seen[x] {
			t.Fatalf("pickDemand gave %v", p)
		}
		seen[x] = true
	}
}

func TestTypicalRunNs(t *testing.T) {
	iters := []*webIter{
		{stretchNs: []float64{1, 10, 3}},
		{stretchNs: []float64{2, 20, 100}}, // a preempted last stretch
		{stretchNs: []float64{3, 30}},      // shorter: only common stretches count
	}
	if got := typicalRunNs(iters); got != 22 {
		t.Errorf("typicalRunNs = %v, want 2 + 20", got)
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		parent   float64
		children []float64
	}{
		{100, []float64{10, 20, 30}},
		{100, []float64{80, 70, 0}}, // replays longer than the call
		{100, []float64{-5, 50}},    // a negative reading counts as 0
		{0, []float64{3, 4}},
		{50, nil},
	} {
		parts, self := attribute(tc.parent, tc.children)
		if self < 0 {
			t.Errorf("%v: self %v < 0", tc, self)
		}
		sum := self
		for i, p := range parts {
			if p < 0 {
				t.Errorf("%v: child %d = %v < 0", tc, i, p)
			}
			if tc.children[i] > 0 && p > tc.children[i]+1e-9 {
				t.Errorf("%v: child %d grew to %v", tc, i, p)
			}
			sum += p
		}
		if sum > tc.parent+1e-9 {
			t.Errorf("%v: layers sum to %v, more than the parent", tc, sum)
		}
		if tc.parent > 0 && math.Abs(sum-tc.parent) > 1e-9 {
			t.Errorf("%v: layers sum to %v, want the parent %v", tc, sum, tc.parent)
		}
	}
}

// TestRunReportsEveryMetric runs the cheapest workload briefly through
// the command-line entry point and checks the JSON contract.
func TestRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "cpu_swap_batch", "--seed", "3", "--seconds", "0.2", "--trace", trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s\n%s", trace, code, errOut.String(), out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the JSON result: %v", trace, err)
		}
		defs := endToEndMetrics
		if trace == "1" {
			defs = perLayerMetrics
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Fatalf("trace %s: %+v", trace, res)
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v", trace, d.name, m)
			}
		}
	}
	if code := run([]string{"--workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
