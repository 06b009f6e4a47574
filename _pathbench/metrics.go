package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names; TestMetricNamesMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are printed by every untraced run (--trace 0), for
// every workload.
var endToEndMetrics = []metricDef{
	{"swap_out_pages_per_s", "1/s", "higher"},
	{"swap_in_pages_per_s", "1/s", "higher"},
	{"sim_s_per_wall_s", "s/s", "higher"},
	{"demand_fault_p50_us", "us", "lower"},
	{"compression_ratio", "ratio", "higher"},
	{"host_cycles_per_page", "cycles", "lower"},
	{"allocs_per_page", "count", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerMetrics are printed by every traced run (--trace 1). A layer
// a workload does not run through reads 0 (the XFM, ECC-path and NMA
// rows of cpu_swap_batch, the workload rows of the batch workloads).
var perLayerMetrics = []metricDef{
	{"ecc.parity_ns_per_page", "ns", "lower"},
	{"ecc.verify_ns_per_page", "ns", "lower"},
	{"ecc.share_of_xfm", "ratio", "lower"},
	{"ecc.parity_bytes_per_page", "B", "lower"},
	{"ecc.corrected_words", "count", "lower"},
	{"ecc.uncorrectable_words", "count", "lower"},
	{"compress.compress_ns_per_page", "ns", "lower"},
	{"compress.decompress_ns_per_page", "ns", "lower"},
	{"sol.memcpy_ns_per_page", "ns", "lower"},
	{"sfm.swap_out_ns_per_page", "ns", "lower"},
	{"sfm.swap_in_ns_per_page", "ns", "lower"},
	{"sfm.stage.stage_out.mean_ns", "ns", "lower"},
	{"sfm.stage.gather.mean_ns", "ns", "lower"},
	{"sfm.stage.decompress_commit.mean_ns", "ns", "lower"},
	{"sfm.lock_wait_p50_ns", "ns", "lower"},
	{"sfm.lock_wait_p99_ns", "ns", "lower"},
	{"sfm.same_filled_pages", "count", "higher"},
	{"sfm.incompressible_pages", "count", "lower"},
	{"zsmalloc.utilization", "ratio", "higher"},
	{"zsmalloc.compactions", "count", "lower"},
	{"parallel.tasks_per_batch", "count", "higher"},
	{"parallel.worker_balance", "ratio", "lower"},
	{"xfm.swap_out_ns_per_page", "ns", "lower"},
	{"xfm.swap_in_ns_per_page", "ns", "lower"},
	{"xfm.demand_swap_in_p50_ns", "ns", "lower"},
	{"xfm.prefetch_swap_in_p50_ns", "ns", "lower"},
	{"xfm.self_ns_per_page", "ns", "lower"},
	{"xfm.mmio_writes_per_op", "count", "lower"},
	{"xfm.mmio_reads_per_op", "count", "lower"},
	{"xfm.spm_syncs_per_kop", "count", "lower"},
	{"xfm.fallbacks", "count", "lower"},
	{"xfm.offload_rate", "ratio", "higher"},
	{"nma.advance_ns_per_call", "ns", "lower"},
	{"nma.windows", "count", "higher"},
	{"nma.busy_window_fraction", "ratio", "higher"},
	{"nma.conditional_fraction", "ratio", "higher"},
	{"nma.reject_ratio", "ratio", "lower"},
	{"nma.mean_latency_ms", "ms", "lower"},
	{"nma.slot_utilization", "ratio", "higher"},
	{"workload.self_ns_per_query", "ns", "lower"},
	{"workload.demotions", "count", "lower"},
	{"workload.demand_faults", "count", "lower"},
	{"workload.prefetches", "count", "higher"},
	{"workload.promotion_rate", "ratio", "lower"},
	{"telemetry.overhead_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// check is one built-in correctness or determinism check.
type check struct {
	name   string
	ok     bool
	detail string
}

// result is what one run reports.
type result struct {
	workload  string
	seed      int64
	traced    bool
	attempted int64 // swap operations attempted
	failed    int64 // swap errors plus byte mismatches
	values    map[string]float64
	checks    []check
	notes     []string // extra human-readable lines
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{workload: workload, seed: seed, traced: traced, values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool {
	if r.failed != 0 || r.attempted == 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// defs returns the metric set this run reports.
func (r *result) defs() []metricDef {
	if r.traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the human-readable report followed by the one-line JSON
// result, which is always the last line.
func (r *result) write(w io.Writer) error {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s\n", r.workload, r.seed, mode)
	for _, d := range r.defs() {
		fmt.Fprintf(w, "  %-38s %14.4f %s\n", d.name, r.values[d.name], d.unit)
	}
	fmt.Fprintf(w, "  %-38s %14.6f (%d failed of %d swaps)\n", "failed_op_ratio",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-28s %s\n", status, c.name, c.detail)
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]jsonMetric{}}
	for _, d := range r.defs() {
		out.Metrics[d.name] = jsonMetric{Value: r.values[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// missing lists the metrics of the run's set that were never set.
func (r *result) missing() []string {
	var out []string
	for _, d := range r.defs() {
		if _, ok := r.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}
