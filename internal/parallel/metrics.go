package parallel

import "xfm/internal/telemetry"

// Worker-pool metrics: how often the stack fans out, how wide, and how
// evenly the atomic work-claiming spreads indexes across workers. The
// per-worker counts are accumulated in locals inside Pool.runBody and
// observed once per batch, so the claiming loop itself stays free of
// shared writes.
var (
	mBatches = telemetry.NewCounter("parallel_batches_total",
		"Pool.Run batches (ForEach included) that fanned out to more than one worker.")
	mTasks = telemetry.NewCounter("parallel_tasks_total",
		"Indexes executed by Pool.Run (serial and parallel).")
	hWorkerTasks = telemetry.NewHistogram("parallel_worker_tasks",
		"Indexes claimed by one worker in one fanned-out Pool.Run (balance).",
		telemetry.ExpBuckets(1, 2, 13))
)
