package main

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"time"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/nma"
	"xfm/internal/sfm"
	"xfm/internal/workload"
	"xfm/internal/xfm"
)

// diffSeedQueries is the length of the short runs that show a different
// seed gives a different simulated fingerprint.
const diffSeedQueries = 500

// pageSeed keys the page hashes the shim verifies swap-ins with.
var pageSeed = maphash.MakeSeed()

// simStretch is the stretch of simulated time one sample of the web
// front-end's emulator speed covers.
const simStretch = 100 * dram.Millisecond

// callLog is the shim's record of one run: a hash of every stored page,
// the host time of every call and where each simStretch of simulated
// time began in host time. One log passes from run to run and keeps its
// capacity, so after the first run the shim
// allocates nothing of its own inside workload.Run, and allocs_per_page
// counts the program's allocations.
type callLog struct {
	hashes     map[sfm.PageID]uint64
	outCallNs  []float64
	demandNs   []float64
	prefetchNs []float64
	marks      []float64 // host ns since the run's start at the first call of each simStretch
}

func newCallLog() *callLog { return &callLog{hashes: map[sfm.PageID]uint64{}} }

func (l *callLog) reset() {
	clear(l.hashes)
	l.outCallNs = l.outCallNs[:0]
	l.demandNs = l.demandNs[:0]
	l.prefetchNs = l.prefetchNs[:0]
	l.marks = l.marks[:0]
}

// shim is the benchmark's sfm.Backend around the xfm.Backend handed to
// workload.Run. It times every swap call, keeps a 64-bit hash of every
// page it swaps out and checks each swap-in against it. In modeSpans it
// also advances the NMA itself before each call and replays the inner
// store and the ECC on the same page, outside the timed call.
type shim struct {
	inner *xfm.Backend
	mode  mode
	log   *callLog

	attempted, failed int64
	firstErr          error
	outs, ins         int64
	outNs, inNs       float64
	shimNs            float64 // all time inside the shim, replays included
	start             time.Time

	// modeSpans only.
	replica                  *sfm.CPUBackend
	rdst                     []byte
	parity                   map[sfm.PageID][]byte
	sol                      *solReplay
	advOutNs, advInNs        float64
	advCalls                 int
	sfmOutNs, sfmInNs        float64
	parent, eccPart, sfmPart float64
	nmaPart, self            float64
}

func newShim(inner *xfm.Backend, m mode, sol *solReplay, log *callLog) *shim {
	log.reset()
	s := &shim{inner: inner, mode: m, log: log}
	if m == modeSpans {
		s.replica = sfm.NewCPUBackend(compress.NewXDeflate(), regionBytes)
		s.rdst = make([]byte, pageSize)
		s.parity = map[sfm.PageID][]byte{}
		s.sol = sol
	}
	return s
}

func (s *shim) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// enter opens the shim's own span and marks the start of each
// simStretch of simulated time.
func (s *shim) enter(now dram.Ps) time.Time {
	t0 := time.Now()
	for dram.Ps(len(s.log.marks))*simStretch <= now {
		s.log.marks = append(s.log.marks, float64(t0.Sub(s.start).Nanoseconds()))
	}
	s.attempted++
	return t0
}

// exit closes the shim's own span.
func (s *shim) exit(t0 time.Time) { s.shimNs += since(t0) }

// advance runs the NMA up to now ahead of a modeSpans call; the
// backend's own AdvanceTo(now) then has nothing left to do.
func (s *shim) advance(now dram.Ps) float64 {
	if s.mode != modeSpans {
		return 0
	}
	t := time.Now()
	s.inner.Driver().AdvanceTo(now)
	s.advCalls++
	return since(t)
}

// split attributes one span-mode call among the nma, sfm and ecc layers.
func (s *shim) split(adv, call, sfmNs, eccNs float64) {
	parent := adv + call
	parts, self := attribute(parent, []float64{adv, sfmNs, eccNs})
	s.parent += parent
	s.nmaPart += parts[0]
	s.sfmPart += parts[1]
	s.eccPart += parts[2]
	s.self += self
}

// SwapOut implements sfm.Backend.
func (s *shim) SwapOut(now dram.Ps, id sfm.PageID, data []byte) error {
	defer s.exit(s.enter(now))
	adv := s.advance(now)
	t := time.Now()
	err := s.inner.SwapOut(now, id, data)
	d := since(t)
	s.outNs += d
	s.log.outCallNs = append(s.log.outCallNs, d)
	if err != nil {
		s.fail(fmt.Errorf("swap-out of page %d: %w", id, err))
		return err
	}
	s.outs++
	s.log.hashes[id] = maphash.Bytes(pageSeed, data)
	if s.mode == modeSpans {
		s.advOutNs += adv
		t = time.Now()
		if err := s.replica.SwapOut(now, id, data); err != nil {
			s.fail(fmt.Errorf("replica swap-out of page %d: %w", id, err))
		}
		sfmNs := since(t)
		s.sfmOutNs += sfmNs
		par0 := s.sol.parityNs
		s.parity[id] = s.sol.parity(data)
		s.split(adv, d, sfmNs, s.sol.parityNs-par0)
		s.sol.memcpy(data)
		s.sol.codecRoundTrip(data)
	}
	return nil
}

// SwapIn implements sfm.Backend.
func (s *shim) SwapIn(now dram.Ps, id sfm.PageID, dst []byte, offload bool) error {
	defer s.exit(s.enter(now))
	adv := s.advance(now)
	t := time.Now()
	err := s.inner.SwapIn(now, id, dst, offload)
	d := since(t)
	s.inNs += d
	if offload {
		s.log.prefetchNs = append(s.log.prefetchNs, d)
	} else {
		s.log.demandNs = append(s.log.demandNs, d)
	}
	if err != nil {
		s.fail(fmt.Errorf("swap-in of page %d: %w", id, err))
		return err
	}
	s.ins++
	h, ok := s.log.hashes[id]
	if !ok || maphash.Bytes(pageSeed, dst) != h {
		s.fail(fmt.Errorf("swap-in of page %d: bytes differ from what went out", id))
	}
	delete(s.log.hashes, id)
	if s.mode == modeSpans {
		s.advInNs += adv
		t = time.Now()
		if err := s.replica.SwapIn(now, id, s.rdst, offload); err != nil {
			s.fail(fmt.Errorf("replica swap-in of page %d: %w", id, err))
		}
		sfmNs := since(t)
		s.sfmInNs += sfmNs
		ver0 := s.sol.verifyNs
		s.sol.verify(dst, s.parity[id])
		delete(s.parity, id)
		s.split(adv, d, sfmNs, s.sol.verifyNs-ver0)
	}
	return nil
}

// SwapOutBatch implements sfm.Backend; workload.Run swaps single pages,
// so the batch calls only loop.
func (s *shim) SwapOutBatch(now dram.Ps, pages []sfm.PageOut) []error {
	errs := make([]error, len(pages))
	for i, p := range pages {
		errs[i] = s.SwapOut(now, p.ID, p.Data)
	}
	return errs
}

// SwapInBatch implements sfm.Backend.
func (s *shim) SwapInBatch(now dram.Ps, pages []sfm.PageIn, offload bool) []error {
	errs := make([]error, len(pages))
	for i, p := range pages {
		errs[i] = s.SwapIn(now, p.ID, p.Dst, offload)
	}
	return errs
}

// Contains implements sfm.Backend.
func (s *shim) Contains(id sfm.PageID) bool { return s.inner.Contains(id) }

// Compact implements sfm.Backend.
func (s *shim) Compact() int64 { return s.inner.Compact() }

// Stats implements sfm.Backend.
func (s *shim) Stats() sfm.BackendStats { return s.inner.Stats() }

var _ sfm.Backend = (*shim)(nil)

// add sums o's span-mode timings into s.
func (s *shim) add(o *shim) {
	s.outs += o.outs
	s.ins += o.ins
	s.outNs += o.outNs
	s.inNs += o.inNs
	s.advOutNs += o.advOutNs
	s.advInNs += o.advInNs
	s.advCalls += o.advCalls
	s.sfmOutNs += o.sfmOutNs
	s.sfmInNs += o.sfmInNs
	s.parent += o.parent
	s.eccPart += o.eccPart
	s.sfmPart += o.sfmPart
	s.nmaPart += o.nmaPart
	s.self += o.self
}

// webIter is one workload.Run over a fresh backend, with the shim's
// call log reduced to the summaries the report needs.
type webIter struct {
	mode    mode
	wallNs  float64
	mallocs uint64
	heap    uint64 // what dropping the backend freed after the run, pages still stored
	cfg     nma.Config
	sh      *shim
	res     workload.Result
	fp      fingerprint

	outP50, inP50          float64   // single-call host time, ns
	demandP50, prefetchP50 float64   // swap-in host time by kind, ns
	demandUs               []float64 // every demand swap-in, us
	stretchNs              []float64 // host time of each simStretch, the time before the first call and after the last included
}

// runWebOnce builds a fresh unsharded XFM backend, wraps it in the
// verifying shim and runs the web front-end over it.
func runWebOnce(w workload.WebFrontend, m mode, sol *solReplay, log *callLog) (*webIter, error) {
	runtime.GC()
	xb, err := newXFM(0)
	if err != nil {
		return nil, err
	}
	it := &webIter{mode: m}
	it.sh = newShim(xb, m, sol, log)
	var probe *telemetryProbe
	if m == modeTelemetry {
		probe = newTelemetryProbe()
		probe.attach(xb.Driver().Sim())
		probe.set(true)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	t := time.Now()
	it.sh.start = t
	res, err := w.Run(it.sh)
	it.wallNs = since(t)
	if probe != nil {
		probe.set(false)
	}
	runtime.ReadMemStats(&ms)
	it.mallocs = ms.Mallocs - mallocs0
	if err != nil {
		it.sh.fail(fmt.Errorf("workload run: %w", err))
	}
	it.res = res
	it.res.Trace = nil
	it.fp = webFingerprint(xb, res)
	it.cfg = xb.Driver().Sim().Config()

	l := it.sh.log
	inNs := append(append([]float64(nil), l.demandNs...), l.prefetchNs...)
	it.outP50, it.inP50 = median(l.outCallNs), median(inNs)
	it.demandP50, it.prefetchP50 = median(l.demandNs), median(l.prefetchNs)
	for _, d := range l.demandNs {
		it.demandUs = append(it.demandUs, d/1e3)
	}
	prev := 0.0
	for _, m := range append(l.marks, it.wallNs) {
		it.stretchNs = append(it.stretchNs, m-prev)
		prev = m
	}
	// Keep only the counters and summaries; the log goes on to the next
	// run, and a run that held on to its backend would grow the heap,
	// and the GC work, of every later run.
	it.sh.log, it.sh.parity, it.sh.replica = nil, nil, nil

	// The backend's memory is what dropping it frees; everything the
	// benchmark holds is on both sides.
	with := liveHeap()
	xb.Close()
	it.sh.inner, xb = nil, nil
	it.heap = heapDelta(with, liveHeap())
	return it, nil
}

// runWeb runs webfrontend_emulator.
func runWeb(name string, o options) (*result, error) {
	res := newResult(name, o.seed, o.traced)
	w := workload.DefaultWebFrontend()
	w.Seed = o.seed
	sol := newSolReplay()
	log := newCallLog()
	minIters := 2
	if o.traced {
		minIters = len(rotation)
	}
	var iters []*webIter
	start := time.Now()
	for i := 0; time.Since(start) < o.dur || i < minIters; i++ {
		m := modePlain
		if o.traced {
			m = rotation[i%len(rotation)]
		}
		it, err := runWebOnce(w, m, sol, log)
		if err != nil {
			return nil, err
		}
		iters = append(iters, it)
	}

	setup, err := timeSetups(func() (sfm.Backend, error) {
		xb, err := newXFM(0)
		return xb, err
	})
	if err != nil {
		return nil, err
	}

	// Determinism: every run above used the same seed; short runs with
	// this seed and the next must differ.
	short := w
	short.Queries = diffSeedQueries
	a, err := runWebOnce(short, modePlain, sol, log)
	if err != nil {
		return nil, err
	}
	short.Seed++
	bb, err := runWebOnce(short, modePlain, sol, log)
	if err != nil {
		return nil, err
	}
	first := iters[0].fp
	same := true
	for _, it := range iters[1:] {
		same = same && it.fp == first
	}
	res.check("fingerprint-same-seed", same, "%d runs of seed %d (modes %v) all give %s",
		len(iters), o.seed, modesOf(iters), first.hash())
	res.check("fingerprint-seed-sensitive", a.fp != bb.fp, "%d-query runs: seed %d gives %s, seed %d gives %s",
		diffSeedQueries, o.seed, a.fp.hash(), o.seed+1, bb.fp.hash())
	for _, it := range append(iters, a, bb) {
		res.attempted += it.sh.attempted
		res.failed += it.sh.failed
		if it.sh.firstErr != nil {
			res.check("swaps-byte-verified", false, "%v", it.sh.firstErr)
		}
	}

	if o.traced {
		webLayers(res, iters, sol, w.Queries)
		return res, nil
	}
	var outNs, inNs, allocs, demand []float64
	var peak uint64
	for _, it := range iters {
		outNs = append(outNs, it.outP50)
		inNs = append(inNs, it.inP50)
		allocs = append(allocs, float64(it.mallocs)/float64(it.sh.outs+it.sh.ins))
		demand = append(demand, it.demandUs...)
		peak = max(peak, it.heap)
	}
	bs := first.Backend
	// Single-page calls: pages per second at the median over runs of
	// each run's median call time.
	res.set("swap_out_pages_per_s", 1e9/median(outNs))
	res.set("swap_in_pages_per_s", 1e9/median(inNs))
	res.set("sim_s_per_wall_s", float64(first.SimDuration)/float64(dram.Second)/(typicalRunNs(iters)/1e9))
	setTails(res, demand)
	res.set("compression_ratio", bs.CompressionRatio())
	res.set("host_cycles_per_page", ratio(bs.CPUCycles, float64(bs.SwapOuts+bs.SwapIns)))
	res.set("allocs_per_page", median(allocs))
	res.set("peak_heap_mb", float64(peak)/(1<<20))
	res.set("setup_s", setup)
	res.note("%d runs of %d queries (%.2f s simulated each); %d swap-outs, %d swap-ins, %d demand faults per run; %d set-ups",
		len(iters), w.Queries, float64(iters[0].res.Duration)/float64(dram.Second),
		bs.SwapOuts, bs.SwapIns, first.Heap.DemandFaults, minSetups)
	res.note("offload_rate (sim) %.4f over %d ops", ratio(float64(bs.Offloads), float64(bs.Offloads+bs.Fallbacks)),
		bs.Offloads+bs.Fallbacks)
	return res, nil
}

// typicalRunNs is the host time of a typical run: the sum over stretches
// of simulated time of each stretch's median host time across runs.
// Every run of a seed makes the same calls at the same simulated times,
// so a stretch is the same work in every run, and the median drops the
// runs in which a preempted host thread stretched it.
func typicalRunNs(iters []*webIter) float64 {
	n := len(iters[0].stretchNs)
	for _, it := range iters {
		n = min(n, len(it.stretchNs))
	}
	col := make([]float64, len(iters))
	total := 0.0
	for k := 0; k < n; k++ {
		for i, it := range iters {
			col[i] = it.stretchNs[k]
		}
		total += median(col)
	}
	return total
}

func modesOf(iters []*webIter) []string {
	names := [...]string{"plain", "spans", "telemetry"}
	out := make([]string, len(iters))
	for i, it := range iters {
		out[i] = names[it.mode]
	}
	return out
}

// webLayers computes the per-layer metrics of a traced web run.
func webLayers(res *result, iters []*webIter, sol *solReplay, queries int) {
	var demand, prefetch, selfPerQuery []float64
	swapNs := map[mode][]float64{}
	sp := &shim{} // the spans runs' timings, summed
	for _, it := range iters {
		sh := it.sh
		swapNs[it.mode] = append(swapNs[it.mode], sh.outNs+sh.inNs+sh.advOutNs+sh.advInNs)
		selfPerQuery = append(selfPerQuery, (it.wallNs-sh.shimNs)/float64(queries))
		switch it.mode {
		case modePlain:
			demand = append(demand, it.demandP50)
			prefetch = append(prefetch, it.prefetchP50)
		case modeSpans:
			sp.add(sh)
		}
	}
	pages := float64(sp.outs + sp.ins)
	res.set("xfm.swap_out_ns_per_page", ratio(sp.outNs+sp.advOutNs, float64(sp.outs)))
	res.set("xfm.swap_in_ns_per_page", ratio(sp.inNs+sp.advInNs, float64(sp.ins)))
	res.set("xfm.demand_swap_in_p50_ns", median(demand))
	res.set("xfm.prefetch_swap_in_p50_ns", median(prefetch))
	res.set("xfm.self_ns_per_page", ratio(sp.self, pages))
	res.set("ecc.share_of_xfm", ratio(sp.eccPart, sp.parent))
	res.set("sfm.swap_out_ns_per_page", ratio(sp.sfmOutNs, float64(sp.outs)))
	res.set("sfm.swap_in_ns_per_page", ratio(sp.sfmInNs, float64(sp.ins)))
	res.set("nma.advance_ns_per_call", ratio(sp.advOutNs+sp.advInNs, float64(sp.advCalls)))
	newRegProbe().report(res) // the unsharded store runs no batch engine: all zero
	sol.report(res)
	fp := iters[0].fp
	storeReport(res, fp)
	nmaReport(res, fp, iters[0].cfg)
	res.set("workload.self_ns_per_query", median(selfPerQuery))
	res.set("workload.demotions", float64(fp.Backend.SwapOuts))
	res.set("workload.demand_faults", float64(fp.Heap.DemandFaults))
	res.set("workload.prefetches", float64(fp.Heap.PrefetchedPages))
	res.set("workload.promotion_rate", fp.PromotionRate)
	overheads(res, median(swapNs[modePlain]), median(swapNs[modeSpans]), median(swapNs[modeTelemetry]))
	res.note("layer split of the xfm swap calls in the spans runs (%.0f ns/page in total):", ratio(sp.parent, pages))
	res.note("  ecc       %s", share(sp.eccPart/pages, sp.parent/pages, "xfm per page"))
	res.note("  sfm       %s", share(sp.sfmPart/pages, sp.parent/pages, "xfm per page"))
	res.note("  nma       %s", share(sp.nmaPart/pages, sp.parent/pages, "xfm per page"))
	res.note("  xfm self  %s", share(sp.self/pages, sp.parent/pages, "xfm per page"))
	res.solLine()
}
