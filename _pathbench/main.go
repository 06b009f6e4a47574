// Command pathbench measures the paper's swap path end to end and layer
// by layer: the sharded XFM backend with side-band ECC and the NMA
// driver, the zswap-style CPU baseline on the same pages, and the §7
// web front-end emulator. See README.md for the workloads, the metrics
// and what each is meant to show.
//
// Usage:
//
//	pathbench --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(name string, o options) (*result, error){
	"xfm_swap_batch":       func(name string, o options) (*result, error) { return runBatch(name, "xfm", o) },
	"cpu_swap_batch":       func(name string, o options) (*result, error) { return runBatch(name, "cpu", o) },
	"webfrontend_emulator": runWeb,
}

// workloadNames lists the workloads in documentation order.
var workloadNames = []string{"xfm_swap_batch", "cpu_swap_batch", "webfrontend_emulator"}

type options struct {
	seed   int64
	dur    time.Duration
	traced bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pathbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed of the inputs")
	seconds := fs.Float64("seconds", 10, "seconds to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "pathbench: need --workload (%s), --trace 0|1 and positive --seconds\n",
			strings.Join(workloadNames, ", "))
		return 2
	}
	o := options{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	res, err := runner(*name, o)
	if err != nil {
		fmt.Fprintf(stderr, "pathbench: %s: %v\n", *name, err)
		return 1
	}
	if m := res.missing(); len(m) > 0 {
		fmt.Fprintf(stderr, "pathbench: %s did not report %v\n", *name, m)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintf(stderr, "pathbench: %v\n", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}
