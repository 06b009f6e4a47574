package main

import (
	"bytes"
	"fmt"
	"time"

	"xfm/internal/compress"
	"xfm/internal/ecc"
	"xfm/internal/nma"
	"xfm/internal/telemetry"
)

// mode is what a traced step or iteration records besides the swaps.
type mode int

const (
	// modePlain runs the swaps with nothing extra: the baseline the
	// two overhead metrics compare against.
	modePlain mode = iota
	// modeSpans adds the benchmark's own spans: an explicit NMA
	// advance before the swap call and replays of each layer.
	modeSpans
	// modeTelemetry turns on the program's own telemetry: the default
	// span tracer and a time-series sampler on the NMA simulator.
	modeTelemetry
)

// rotation is the order a traced run cycles through the modes, one
// step (or one web front-end run) each, so drift hits all three alike.
var rotation = [...]mode{modePlain, modeSpans, modeTelemetry}

func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) }

// telemetryProbe switches the program's telemetry on and off around the
// swap calls of modeTelemetry steps.
type telemetryProbe struct {
	smp *telemetry.Sampler
}

func newTelemetryProbe() *telemetryProbe {
	return &telemetryProbe{smp: telemetry.NewSampler(telemetry.DefaultRegistry(), 0)}
}

// attach makes sim tick the probe's sampler.
func (p *telemetryProbe) attach(sim *nma.Sim) { sim.SetSampler(p.smp) }

func (p *telemetryProbe) set(on bool) {
	telemetry.DefaultTracer().SetEnabled(on)
	p.smp.SetEnabled(on)
}

// histAcc accumulates the observations a histogram of the default
// registry receives between begin and end, so replays the benchmark
// runs between swap calls stay out of it.
type histAcc struct {
	h    *telemetry.Histogram
	prev telemetry.HistogramState
	acc  telemetry.HistogramState
}

func (a *histAcc) begin() { a.prev = a.h.State() }

func (a *histAcc) end() {
	d := a.h.State().Delta(a.prev)
	if a.acc.Counts == nil {
		a.acc = d
		return
	}
	for i, c := range d.Counts {
		a.acc.Counts[i] += c
	}
	a.acc.Sum += d.Sum
}

// regProbe reads the counters the program exports through the default
// registry: the sfm batch-stage and shard-lock histograms and the
// worker-pool task counters.
type regProbe struct {
	stageOut, gather, decompCommit, lockWait, workerTasks histAcc
	tasks                                                 *telemetry.Counter
	tasks0                                                int64
	taskSum                                               int64
	calls                                                 int64
}

func newRegProbe() *regProbe {
	reg := telemetry.DefaultRegistry()
	stage := reg.HistogramVec("sfm_batch_stage_ns", "", "stage", nil)
	return &regProbe{
		stageOut:     histAcc{h: stage.With("stage_out")},
		gather:       histAcc{h: stage.With("gather")},
		decompCommit: histAcc{h: stage.With("decompress_commit")},
		lockWait:     histAcc{h: reg.Histogram("sfm_shard_lock_wait_ns", "", nil)},
		workerTasks:  histAcc{h: reg.Histogram("parallel_worker_tasks", "", nil)},
		tasks:        reg.Counter("parallel_tasks_total", ""),
	}
}

func (r *regProbe) all() []*histAcc {
	return []*histAcc{&r.stageOut, &r.gather, &r.decompCommit, &r.lockWait, &r.workerTasks}
}

// begin and end bracket one batch swap call.
func (r *regProbe) begin() {
	for _, a := range r.all() {
		a.begin()
	}
	r.tasks0 = r.tasks.Value()
}

func (r *regProbe) end() {
	for _, a := range r.all() {
		a.end()
	}
	r.taskSum += r.tasks.Value() - r.tasks0
	r.calls++
}

// report sets the registry-derived metrics. Stage times are means from
// the histograms' exact sums: their factor-4 buckets put a whole run's
// observations in one bucket, where an interpolated p50 reads the same
// on every run.
func (r *regProbe) report(res *result) {
	res.set("sfm.stage.stage_out.mean_ns", r.stageOut.acc.Mean())
	res.set("sfm.stage.gather.mean_ns", r.gather.acc.Mean())
	res.set("sfm.stage.decompress_commit.mean_ns", r.decompCommit.acc.Mean())
	res.set("sfm.lock_wait_p50_ns", r.lockWait.acc.Quantile(0.5))
	res.set("sfm.lock_wait_p99_ns", r.lockWait.acc.Quantile(0.99))
	res.set("parallel.tasks_per_batch", ratio(float64(r.taskSum), float64(r.calls)))
	// The histogram keeps buckets, not samples: the max is the upper
	// edge of the highest occupied bucket.
	wt := r.workerTasks.acc
	res.set("parallel.worker_balance", ratio(wt.Quantile(1), wt.Mean()))
}

// solReplay times the speed-of-light references on the workload's own
// pages: a 4 KiB copy, the codec alone and the ECC alone, each run
// serially on one page at a time.
type solReplay struct {
	codec                    compress.Codec
	scratch                  compress.Scratch
	buf                      []byte
	memcpyNs, parityNs       float64
	verifyNs                 float64
	compressNs, decompressNs float64
	memcpyPages, parityPages int
	verifyPages, codecPages  int
	failures                 int
}

func newSolReplay() *solReplay {
	return &solReplay{codec: compress.NewXDeflate(), buf: make([]byte, pageSize)}
}

func (s *solReplay) memcpy(page []byte) {
	t := time.Now()
	copy(s.buf, page)
	s.memcpyNs += since(t)
	s.memcpyPages++
}

// parity replays ecc.PageParity and returns the parity bytes.
func (s *solReplay) parity(page []byte) []byte {
	t := time.Now()
	par := ecc.PageParity(page)
	s.parityNs += since(t)
	s.parityPages++
	return par
}

// verify replays ecc.VerifyPage on an intact page; any correction is
// a failure.
func (s *solReplay) verify(page, par []byte) {
	t := time.Now()
	c, bad := ecc.VerifyPage(page, par)
	s.verifyNs += since(t)
	s.verifyPages++
	if c != 0 || bad != 0 {
		s.failures++
	}
}

// codecRoundTrip replays compression and decompression of one page.
func (s *solReplay) codecRoundTrip(page []byte) {
	t := time.Now()
	comp := s.scratch.Compress(s.codec, page)
	s.compressNs += since(t)
	t = time.Now()
	out, err := s.scratch.Decompress(s.codec, comp)
	s.decompressNs += since(t)
	s.codecPages++
	if err != nil || !bytes.Equal(out, page) {
		s.failures++
	}
}

// full replays every reference on one page.
func (s *solReplay) full(page []byte) {
	s.memcpy(page)
	s.verify(s.buf, s.parity(s.buf))
	s.codecRoundTrip(s.buf)
}

func (s *solReplay) report(res *result) {
	res.set("sol.memcpy_ns_per_page", ratio(s.memcpyNs, float64(s.memcpyPages)))
	res.set("ecc.parity_ns_per_page", ratio(s.parityNs, float64(s.parityPages)))
	res.set("ecc.verify_ns_per_page", ratio(s.verifyNs, float64(s.verifyPages)))
	res.set("compress.compress_ns_per_page", ratio(s.compressNs, float64(s.codecPages)))
	res.set("compress.decompress_ns_per_page", ratio(s.decompressNs, float64(s.codecPages)))
	res.check("sol-replays-roundtrip", s.failures == 0,
		"%d replayed pages failed the codec or ECC round trip", s.failures)
}

// solLine is the speed-of-light column of the layer table.
func (r *result) solLine() {
	v := r.values
	r.note("speed of light per 4 KiB page (serial replays on this workload's pages): memcpy %.0f ns | codec-only %.0f+%.0f ns | ECC-only %.0f+%.0f ns",
		v["sol.memcpy_ns_per_page"], v["compress.compress_ns_per_page"], v["compress.decompress_ns_per_page"],
		v["ecc.parity_ns_per_page"], v["ecc.verify_ns_per_page"])
}

// share formats a ratio together with its base.
func share(part, base float64, baseName string) string {
	return fmt.Sprintf("%5.1f%% of %s (%.0f ns)", 100*ratio(part, base), baseName, base)
}

// nmaReport sets the NMA and XFM counter metrics from a fingerprint.
func nmaReport(res *result, fp fingerprint, cfg nma.Config) {
	ops := float64(fp.Backend.Offloads + fp.Backend.Fallbacks)
	res.set("xfm.mmio_writes_per_op", ratio(float64(fp.MMIOWrites), ops))
	res.set("xfm.mmio_reads_per_op", ratio(float64(fp.MMIOReads), ops))
	res.set("xfm.spm_syncs_per_kop", 1000*ratio(float64(fp.SPMSyncs), ops))
	res.set("xfm.fallbacks", float64(fp.Backend.Fallbacks))
	res.set("xfm.offload_rate", ratio(float64(fp.Backend.Offloads), ops))
	res.set("ecc.parity_bytes_per_page", ratio(float64(fp.ParityBytes), float64(fp.Backend.SwapOuts)))
	res.set("ecc.corrected_words", float64(fp.Corrected))
	res.set("ecc.uncorrectable_words", float64(fp.Uncorrectable))
	res.set("nma.windows", float64(fp.NMA.Windows))
	res.set("nma.busy_window_fraction", fp.NMA.BusyWindowFraction())
	res.set("nma.conditional_fraction", fp.NMA.ConditionalFraction())
	res.set("nma.reject_ratio", fp.NMA.FallbackRate())
	res.set("nma.mean_latency_ms", fp.NMA.MeanLatencyMs())
	res.set("nma.slot_utilization", fp.NMA.SlotUtilization(cfg.AccessesPerTRFC+cfg.RandomPerTRFC))
}

// storeReport sets the sfm and zsmalloc counter metrics.
func storeReport(res *result, fp fingerprint) {
	res.set("sfm.same_filled_pages", float64(fp.Backend.SameFilledPages))
	res.set("sfm.incompressible_pages", float64(fp.Backend.IncompressiblePages))
	res.set("zsmalloc.utilization", fp.Backend.Region.Utilization())
	res.set("zsmalloc.compactions", float64(fp.Backend.Region.Compactions))
}
