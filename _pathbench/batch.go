package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"xfm/internal/dram"
	"xfm/internal/ecc"
	"xfm/internal/nma"
	"xfm/internal/parallel"
	"xfm/internal/sfm"
	"xfm/internal/xfm"
)

// solSample is how many pages of each traced batch the serial
// speed-of-light replays cover.
const solSample = 32

// batchRun drives one batch workload: step k swaps out batch k mod 16
// and, once the prefill is done, brings back the batch that went out
// lagBatches steps earlier — demandPerStep pages demand-faulted one by
// one, the rest prefetched as one batch. Simulated time advances
// stepGap per step.
type batchRun struct {
	in *inputs
	be sfm.Backend
	xb *xfm.Backend // nil for the CPU baseline
	k  int

	outs   []sfm.PageOut
	ins    []sfm.PageIn
	idx    []int // input page index of each ins entry
	dsts   [][]byte
	demand [demandPerStep]int

	attempted, failed int64
	firstErr          error
	allocs            allocMeter

	tr *batchTrace // nil unless traced
}

// allocMeter counts heap allocations inside the swap calls only, so the
// benchmark's own bookkeeping stays out of allocs_per_page.
type allocMeter struct {
	ms           runtime.MemStats
	start, total uint64
}

func (a *allocMeter) begin() {
	runtime.ReadMemStats(&a.ms)
	a.start = a.ms.Mallocs
}

func (a *allocMeter) end() {
	runtime.ReadMemStats(&a.ms)
	a.total += a.ms.Mallocs - a.start
}

// heapDelta returns a - b, or 0 when the heap shrank.
func heapDelta(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// liveHeap collects garbage and returns the live heap in bytes. The
// second collection also empties the sync.Pool victim caches, whose
// contents depend on when the last collection happened to run.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// stepTimes is one step's host time, in ns.
type stepTimes struct {
	mode                                 mode
	outNs, inNs, advNs                   float64
	demandNs                             [demandPerStep]float64
	inPages                              int
	allocs                               uint64 // inside the swap calls
	sfmOutNs, sfmInNs, eccOutNs, eccInNs float64
}

func (st *stepTimes) pages() int { return batchPages + demandPerStep + st.inPages }

func (st *stepTimes) swapNs() float64 {
	t := st.outNs + st.inNs + st.advNs
	for _, d := range st.demandNs {
		t += d
	}
	return t
}

// setupBatch generates the seeded working set, allocates the step
// buffers and builds the backend.
func setupBatch(kind string, seed int64) (*batchRun, error) {
	b := &batchRun{in: genInputs(seed, wsPages)}
	b.outs = make([]sfm.PageOut, batchPages)
	b.ins = make([]sfm.PageIn, batchPages)
	b.idx = make([]int, batchPages)
	b.dsts = make([][]byte, batchPages)
	for i := range b.dsts {
		b.dsts[i] = make([]byte, pageSize)
	}
	var err error
	b.be, b.xb, err = newBatchBackend(kind)
	return b, err
}

// newBatchBackend builds the backend of a batch workload; the second
// result is nil for the CPU baseline.
func newBatchBackend(kind string) (sfm.Backend, *xfm.Backend, error) {
	if kind == "xfm" {
		xb, err := newXFM(xfmShards)
		if err != nil {
			return nil, nil, err
		}
		return xb, xb, nil
	}
	return newCPU(), nil, nil
}

// timeSetups constructs a backend minSetups times and returns the
// median construction time in seconds. Each construction starts from a
// collected heap whose free memory has gone back to the OS, so each pays
// for fresh memory, as the first one in a process does; a warm start
// would cost whatever the last collection happened to leave mapped.
func timeSetups(build func() (sfm.Backend, error)) (float64, error) {
	secs := make([]float64, 0, minSetups)
	for len(secs) < minSetups {
		debug.FreeOSMemory()
		t := time.Now()
		be, err := build()
		d := time.Since(t).Seconds()
		if err != nil {
			return 0, err
		}
		secs = append(secs, d)
		closeBackend(be)
	}
	return median(secs), nil
}

// closeBackend stops a backend's workers, if it has any.
func closeBackend(be sfm.Backend) {
	if c, ok := be.(interface{ Close() }); ok {
		c.Close()
	}
}

func (b *batchRun) close() {
	if b.be != nil {
		closeBackend(b.be)
		b.be, b.xb = nil, nil
	}
	if b.tr != nil && b.tr.replica != nil {
		b.tr.replica.Close()
		b.tr.pool.Close()
		b.tr.replica, b.tr.pool = nil, nil
	}
}

func (b *batchRun) fingerprint() fingerprint { return fingerprintOf(b.be, b.xb) }

func (b *batchRun) fail(err error) {
	b.failed++
	if b.firstErr == nil {
		b.firstErr = err
	}
}

// verify byte-compares a swapped-in page with what went out.
func (b *batchRun) verify(err error, dst []byte, p int) {
	b.attempted++
	switch {
	case err != nil:
		b.fail(fmt.Errorf("swap-in of page %d: %w", b.in.ids[p], err))
	case !bytes.Equal(dst, b.in.pages[p]):
		b.fail(fmt.Errorf("swap-in of page %d: bytes differ from what went out", b.in.ids[p]))
	}
}

func (b *batchRun) telemetry(m mode, on bool) {
	if m == modeTelemetry && b.tr != nil {
		b.tr.tel.set(on)
	}
}

func (b *batchRun) step(m mode) (st stepTimes) {
	k := b.k
	b.k++
	now := dram.Ps(k+1) * stepGap
	st.mode = m
	tr := b.tr
	allocs0 := b.allocs.total
	defer func() { st.allocs = b.allocs.total - allocs0 }()

	j := k % nBatches
	for i := range b.outs {
		p := j*batchPages + i
		b.outs[i] = sfm.PageOut{ID: b.in.ids[p], Data: b.in.pages[p]}
	}
	b.telemetry(m, true)
	if m == modeSpans && b.xb != nil {
		// The explicit advance makes the backend's own AdvanceTo(now)
		// a no-op, so NMA time shows apart from the swap call.
		t := time.Now()
		b.xb.Driver().AdvanceTo(now)
		st.advNs = since(t)
	}
	if tr != nil {
		tr.reg.begin()
	}
	b.allocs.begin()
	t := time.Now()
	errs := b.be.SwapOutBatch(now, b.outs)
	st.outNs = since(t)
	b.allocs.end()
	if tr != nil {
		tr.reg.end()
	}
	b.telemetry(m, false)
	for i, err := range errs {
		b.attempted++
		if err != nil {
			b.fail(fmt.Errorf("swap-out of page %d: %w", b.outs[i].ID, err))
		}
	}
	if tr != nil {
		tr.afterOut(now, b, &st)
	}
	if k < lagBatches {
		return st
	}

	jj := (k - lagBatches) % nBatches
	pickDemand(b.in.seed, k, &b.demand)
	var isDemand [batchPages]bool
	b.telemetry(m, true)
	for d, pos := range b.demand {
		isDemand[pos] = true
		p := jj*batchPages + pos
		dst := b.dsts[d]
		clear(dst)
		b.allocs.begin()
		t := time.Now()
		err := b.be.SwapIn(now, b.in.ids[p], dst, false)
		st.demandNs[d] = since(t)
		b.allocs.end()
		b.verify(err, dst, p)
		if tr != nil {
			tr.mirrorDemand(now, b.in.ids[p])
		}
	}
	n := 0
	for i := 0; i < batchPages; i++ {
		if isDemand[i] {
			continue
		}
		p := jj*batchPages + i
		dst := b.dsts[demandPerStep+n]
		clear(dst)
		b.ins[n] = sfm.PageIn{ID: b.in.ids[p], Dst: dst}
		b.idx[n] = p
		n++
	}
	ins := b.ins[:n]
	if tr != nil {
		tr.reg.begin()
	}
	b.allocs.begin()
	t = time.Now()
	errs = b.be.SwapInBatch(now, ins, true)
	st.inNs = since(t)
	b.allocs.end()
	if tr != nil {
		tr.reg.end()
	}
	b.telemetry(m, false)
	st.inPages = n
	for i, err := range errs {
		b.verify(err, ins[i].Dst, b.idx[i])
	}
	if tr != nil {
		tr.afterIn(now, b, &st)
	}
	return st
}

// batchTrace holds the traced run's extra machinery.
type batchTrace struct {
	tel *telemetryProbe
	reg *regProbe
	sol *solReplay

	// XFM only: the inner sfm store replayed on the same batches, and
	// the ECC fan-out replayed on a pool as wide as the backend's.
	replica  *sfm.ShardedBackend
	pool     *parallel.Pool
	parity   [][]byte // per input page, filled by the parity replay
	rdsts    [][]byte
	rins     []sfm.PageIn
	rdst     []byte
	replicaF int64
}

func newBatchTrace(b *batchRun) *batchTrace {
	tr := &batchTrace{tel: newTelemetryProbe(), reg: newRegProbe(), sol: newSolReplay()}
	if b.xb != nil {
		tr.tel.attach(b.xb.Driver().Sim())
		tr.replica = newCPU()
		tr.pool = parallel.NewPool(0)
		tr.parity = make([][]byte, wsPages)
		tr.rdsts = make([][]byte, batchPages)
		for i := range tr.rdsts {
			tr.rdsts[i] = make([]byte, pageSize)
		}
		tr.rins = make([]sfm.PageIn, batchPages)
		tr.rdst = make([]byte, pageSize)
	}
	return tr
}

func (tr *batchTrace) afterOut(now dram.Ps, b *batchRun, st *stepTimes) {
	if tr.replica != nil {
		// Every step is mirrored so the replica holds the same pages;
		// only modeSpans steps use the timings.
		t := time.Now()
		errs := tr.replica.SwapOutBatch(now, b.outs)
		st.sfmOutNs = since(t)
		if sfm.FirstError(errs) != nil {
			tr.replicaF++
		}
	}
	if st.mode != modeSpans {
		return
	}
	if tr.replica != nil {
		j := (b.k - 1) % nBatches
		t := time.Now()
		tr.pool.Run(batchPages, 0, func(_, i int) {
			tr.parity[j*batchPages+i] = ecc.PageParity(b.outs[i].Data)
		})
		st.eccOutNs = since(t)
	}
	for i, p := range b.outs {
		if i < solSample {
			tr.sol.full(p.Data)
		} else {
			tr.sol.memcpy(p.Data)
		}
	}
}

func (tr *batchTrace) mirrorDemand(now dram.Ps, id sfm.PageID) {
	if tr.replica != nil && tr.replica.SwapIn(now, id, tr.rdst, false) != nil {
		tr.replicaF++
	}
}

func (tr *batchTrace) afterIn(now dram.Ps, b *batchRun, st *stepTimes) {
	if tr.replica == nil {
		return
	}
	ins := b.ins[:st.inPages]
	for i, p := range ins {
		tr.rins[i] = sfm.PageIn{ID: p.ID, Dst: tr.rdsts[i]}
	}
	t := time.Now()
	errs := tr.replica.SwapInBatch(now, tr.rins[:len(ins)], true)
	st.sfmInNs = since(t)
	if sfm.FirstError(errs) != nil {
		tr.replicaF++
	}
	if st.mode != modeSpans {
		return
	}
	for i := range ins {
		if p := b.idx[i]; tr.parity[p] == nil {
			tr.parity[p] = ecc.PageParity(b.in.pages[p])
		}
	}
	t = time.Now()
	tr.pool.Run(len(ins), 0, func(_, i int) {
		ecc.VerifyPage(ins[i].Dst, tr.parity[b.idx[i]])
	})
	st.eccInNs = since(t)
}

// runBatch runs xfm_swap_batch (kind "xfm") or cpu_swap_batch ("cpu").
func runBatch(name, kind string, o options) (*result, error) {
	res := newResult(name, o.seed, o.traced)
	b, err := setupBatch(kind, o.seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	isXFM := b.xb != nil
	if o.traced {
		b.tr = newBatchTrace(b)
	}
	for b.k < lagBatches {
		b.step(modePlain)
	}

	steps := make([]stepTimes, 0, 4096)
	var peak uint64
	var fpRun fingerprint
	start := time.Now()
	for time.Since(start) < o.dur || b.k < fingerprintSteps || len(steps) < 2*len(rotation) {
		m := modePlain
		if o.traced {
			m = rotation[(b.k-lagBatches)%len(rotation)]
		}
		st := b.step(m)
		steps = append(steps, st)
		if b.k == fingerprintSteps {
			fpRun = b.fingerprint()
		}
	}
	fpEnd := b.fingerprint()
	if !o.traced {
		// The backend's memory is what dropping it frees. The inputs
		// and the step log, however long it grew, are on both sides.
		// After the prefill every step ends with the same nine batches
		// stored, so the end is as full as the store gets.
		with := liveHeap()
		b.close()
		peak = heapDelta(with, liveHeap())
	}

	// Determinism: an untraced replay with the same seed must reach the
	// same simulated state, and a different seed must not.
	rep, err := setupBatch(kind, o.seed)
	if err != nil {
		return nil, err
	}
	var fpRep1, fpRep fingerprint
	for rep.k < fingerprintSteps {
		rep.step(modePlain)
		if rep.k == 1 {
			fpRep1 = rep.fingerprint()
		}
	}
	fpRep = rep.fingerprint()
	rep.close()
	other, err := setupBatch(kind, o.seed+1)
	if err != nil {
		return nil, err
	}
	other.step(modePlain)
	fpOther := other.fingerprint()
	other.close()
	setup, err := timeSetups(func() (sfm.Backend, error) {
		be, _, err := newBatchBackend(kind)
		return be, err
	})
	if err != nil {
		return nil, err
	}
	res.attempted = b.attempted + rep.attempted + other.attempted
	res.failed = b.failed + rep.failed + other.failed
	for _, r := range []*batchRun{b, rep, other} {
		if r.firstErr != nil {
			res.check("swaps-byte-verified", false, "%v", r.firstErr)
		}
	}
	runName := "untraced run"
	if o.traced {
		runName = "traced run"
	}
	res.check("fingerprint-same-seed", fpRun == fpRep,
		"%s %s vs untraced replay %s after %d steps", runName, fpRun.hash(), fpRep.hash(), fingerprintSteps)
	res.check("fingerprint-seed-sensitive", fpOther != fpRep1,
		"seed %d gives %s, seed %d gives %s after 1 step", o.seed, fpRep1.hash(), o.seed+1, fpOther.hash())

	if o.traced {
		b.tr.report(res, b, steps, fpEnd)
		return res, nil
	}
	var outNs, inNs, stepNs, demandNs, allocs []float64
	var outTotal, inTotal, inPages, swapTotal float64
	for i := range steps {
		st := &steps[i]
		allocs = append(allocs, float64(st.allocs)/float64(st.pages()))
		outNs = append(outNs, st.outNs/batchPages)
		inNs = append(inNs, st.inNs/float64(st.inPages))
		stepNs = append(stepNs, st.swapNs())
		for _, d := range st.demandNs {
			demandNs = append(demandNs, d/1e3)
		}
		outTotal += st.outNs
		inTotal += st.inNs
		inPages += float64(st.inPages)
		swapTotal += st.swapNs()
	}
	// The median step. Time stolen from a shared host's vCPUs lands on
	// a varying share of the steps and moved totals over whole runs by
	// a third between runs. By design the median also leaves out the
	// program's own garbage collection and periodic work where they
	// land on a minority of steps; allocs_per_page tracks the
	// allocations behind the GC, and the note gives the totals.
	res.set("swap_out_pages_per_s", 1e9/median(outNs))
	res.set("swap_in_pages_per_s", 1e9/median(inNs))
	res.set("sim_s_per_wall_s", float64(stepGap)/float64(dram.Second)/(median(stepNs)/1e9))
	res.note("totals over all steps, GC included (not bounded): swap out %.1f pages/s, swap in %.1f pages/s, %.4f sim s per host s",
		1e9*float64(len(steps)*batchPages)/outTotal, 1e9*inPages/inTotal,
		float64(len(steps))*float64(stepGap)/float64(dram.Second)/(swapTotal/1e9))
	setTails(res, demandNs)
	// The simulated metrics come from the fixed-length prefix, so they
	// depend on the seed only, not on how many steps the host managed.
	bs := fpRun.Backend
	res.set("compression_ratio", bs.CompressionRatio())
	res.set("host_cycles_per_page", ratio(bs.CPUCycles, float64(bs.SwapOuts+bs.SwapIns)))
	// The median step: a garbage collection empties the sync.Pools the
	// swap paths draw from, and the refills land in whichever step
	// follows it.
	res.set("allocs_per_page", median(allocs))
	res.set("peak_heap_mb", float64(peak)/(1<<20))
	res.set("setup_s", setup)
	res.note("%d measured steps of %d pages out, %d demand faults and %d prefetched in; %d set-ups",
		len(steps), batchPages, demandPerStep, batchPages-demandPerStep, minSetups)
	if isXFM {
		res.note("offload_rate (sim) %.4f over %d ops at step %d", ratio(float64(fpRun.Backend.Offloads),
			float64(fpRun.Backend.Offloads+fpRun.Backend.Fallbacks)), fpRun.Backend.Offloads+fpRun.Backend.Fallbacks,
			fingerprintSteps)
	}
	return res, nil
}

// setTails sets demand_fault_p50_us and prints the demand-fault tail,
// the highest percentile up to p95 with minTail samples beyond it. The
// tail is not a bounded metric: on a shared host a few preempted calls
// move it by a third from run to run.
func setTails(res *result, demandUs []float64) {
	res.set("demand_fault_p50_us", median(demandUs))
	v, used, n := tailQuantile(demandUs, 0.95)
	res.note("demand_fault_p95_us %.3f us (p%.1f of n=%d demand faults; median %.3f us)",
		v, 100*used, n, median(demandUs))
}

// report computes the per-layer metrics of a traced batch run.
func (tr *batchTrace) report(res *result, b *batchRun, steps []stepTimes, fp fingerprint) {
	var xfmOut, xfmIn, sfmOut, sfmIn, demand, prefetch []float64
	var parent, eccPart, sfmPart, nmaPart, self, xfmPages float64
	var advNs, advCalls float64
	swapNs := map[mode][]float64{}
	for i := range steps {
		st := &steps[i]
		swapNs[st.mode] = append(swapNs[st.mode], st.swapNs())
		switch st.mode {
		case modePlain:
			demand = append(demand, st.demandNs[:]...)
			prefetch = append(prefetch, st.inNs/float64(st.inPages))
		case modeSpans:
			outPages, inPages := float64(batchPages), float64(st.inPages)
			if b.xb == nil {
				sfmOut = append(sfmOut, st.outNs/outPages)
				sfmIn = append(sfmIn, st.inNs/inPages)
				continue
			}
			xfmOut = append(xfmOut, (st.advNs+st.outNs)/outPages)
			xfmIn = append(xfmIn, st.inNs/inPages)
			sfmOut = append(sfmOut, st.sfmOutNs/outPages)
			sfmIn = append(sfmIn, st.sfmInNs/inPages)
			advNs += st.advNs
			advCalls++
			po := st.advNs + st.outNs
			co, so := attribute(po, []float64{st.advNs, st.sfmOutNs, st.eccOutNs})
			ci, si := attribute(st.inNs, []float64{st.sfmInNs, st.eccInNs})
			parent += po + st.inNs
			nmaPart += co[0]
			sfmPart += co[1] + ci[0]
			eccPart += co[2] + ci[1]
			self += so + si
			xfmPages += outPages + inPages
		}
	}
	res.set("sfm.swap_out_ns_per_page", median(sfmOut))
	res.set("sfm.swap_in_ns_per_page", median(sfmIn))
	res.set("xfm.swap_out_ns_per_page", median(xfmOut))
	res.set("xfm.swap_in_ns_per_page", median(xfmIn))
	res.set("xfm.self_ns_per_page", ratio(self, xfmPages))
	res.set("ecc.share_of_xfm", ratio(eccPart, parent))
	res.set("nma.advance_ns_per_call", ratio(advNs, advCalls))
	if b.xb != nil {
		res.set("xfm.demand_swap_in_p50_ns", median(demand))
		res.set("xfm.prefetch_swap_in_p50_ns", median(prefetch))
	} else {
		res.set("xfm.demand_swap_in_p50_ns", 0)
		res.set("xfm.prefetch_swap_in_p50_ns", 0)
	}
	tr.reg.report(res)
	tr.sol.report(res)
	storeReport(res, fp)
	if b.xb != nil {
		nmaReport(res, fp, b.xb.Driver().Sim().Config())
	} else {
		nmaReport(res, fingerprint{}, nma.Config{})
	}
	for _, name := range []string{"workload.self_ns_per_query", "workload.demotions",
		"workload.demand_faults", "workload.prefetches", "workload.promotion_rate"} {
		res.set(name, 0)
	}
	overheads(res, median(swapNs[modePlain]), median(swapNs[modeSpans]), median(swapNs[modeTelemetry]))
	if tr.replica != nil {
		res.check("sfm-replica-swaps", tr.replicaF == 0, "%d replica batches failed", tr.replicaF)
		res.note("layer split of the xfm swap calls over %d traced steps (%.0f ns/page in total):", len(xfmOut), ratio(parent, xfmPages))
		res.note("  ecc       %s", share(eccPart/xfmPages, parent/xfmPages, "xfm per page"))
		res.note("  sfm       %s", share(sfmPart/xfmPages, parent/xfmPages, "xfm per page"))
		res.note("  nma       %s", share(nmaPart/xfmPages, parent/xfmPages, "xfm per page"))
		res.note("  xfm self  %s", share(self/xfmPages, parent/xfmPages, "xfm per page"))
	}
	sfmPage := (median(sfmOut) + median(sfmIn)) / 2
	codec := (res.values["compress.compress_ns_per_page"] + res.values["compress.decompress_ns_per_page"]) / 2
	res.note("serial codec replay vs the parallel sfm store call: %s", share(codec, sfmPage, "sfm wall per page, out+in mean"))
	res.solLine()
}

// overheads sets the two instrumentation-cost metrics from the median
// per-step (or per-run) swap time of each mode.
func overheads(res *result, plain, spans, tel float64) {
	res.set("trace.overhead_pct", 100*(ratio(spans, plain)-1))
	res.set("telemetry.overhead_pct", 100*(ratio(tel, plain)-1))
	res.note("median swap time per step (per run for the web front-end): plain %.0f ns, with benchmark spans %.0f ns, with program telemetry %.0f ns",
		plain, spans, tel)
}
