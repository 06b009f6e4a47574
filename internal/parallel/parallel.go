// Package parallel provides the worker-pool primitive shared by the
// batched offload pipeline: sfm batch swap operations and xfm batch
// offload submission fan out through a persistent Pool, and the
// experiments runner through ForEach, a one-shot Pool. Keeping one
// claiming loop (Pool.runBody) makes the concurrency shape of the
// whole stack auditable in one place.
package parallel

import "runtime"

// Workers resolves a worker-count request: values > 0 pass through,
// anything else means "one worker per available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) using up to workers
// goroutines (≤ 0 means GOMAXPROCS) and returns when all calls have
// completed. It is Pool.Run on a pool that lives for one call: a
// single worker (or n ≤ 1) runs inline in index order, fn must not
// depend on which goroutine runs which index, panics propagate, and
// every spawned goroutine has exited by the time ForEach returns.
func ForEach(n, workers int, fn func(i int)) {
	p := NewPool(min(Workers(workers), max(n, 1)))
	defer p.Close()
	p.Run(n, 0, func(_, i int) { fn(i) })
}
