package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"xfm/internal/compress"
	"xfm/internal/corpus"
	"xfm/internal/dram"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/sfm"
	"xfm/internal/workload"
	"xfm/internal/xfm"
)

// Shape of the batch workloads.
const (
	pageSize   = sfm.PageSize
	batchPages = 256
	// wsPages is the working set: 4096 pages = 16 MiB, larger than L2.
	wsPages  = 4096
	nBatches = wsPages / batchPages
	// lagBatches is how many steps after its swap-out a batch is
	// prefetched back, so 9 batches (2304 pages) sit in far memory in
	// the steady state. It is a multiple of the traced run's mode
	// rotation, so a traced step prefetches a batch that went out on a
	// traced step too.
	lagBatches = 9
	// demandPerStep pages of each returning batch are demand-faulted
	// one by one (offload=false, the CPU path) before the rest of the
	// batch is prefetched (offload=true). The share is an assumption,
	// not a measurement: the batch path has no published demand share,
	// and the one the repository measures (the web front-end's 408
	// demand faults beside 448 prefetches) belongs to single-page swaps,
	// which webfrontend_emulator covers. Eight per step is kept small
	// and gives each run some hundreds of samples for
	// demand_fault_p50_us.
	demandPerStep = 8
	// stepGap is the simulated time between batches: one 32 ms refresh
	// cycle, so every refresh group comes round once per batch and the
	// NMA keeps up with the offered load (about 8 pages per simulated
	// millisecond each way) instead of filling its queue.
	stepGap = 32 * dram.Millisecond
	// sameFilledPerBatch pages of every batch are zero-filled. No corpus
	// generator yields a same-filled page, and neither the paper nor the
	// repository measures their share, so the share is kept to the one
	// page that exercises the same-filled path and barely moves the
	// per-page cost.
	sameFilledPerBatch = 1
	// fingerprintSteps is the step count after which the simulated
	// fingerprint is compared: the prefill plus one step of each traced
	// mode.
	fingerprintSteps = lagBatches + 3
	// minSetups is how many backend constructions a run times;
	// setup_s is their median. One cold construction takes 0.3-0.6 ms
	// and its quartiles lie about a quarter apart, so a few hundred
	// keep the median steady from run to run.
	minSetups = 201
	// xfmShards and regionBytes follow the repo's XFM batch benchmark.
	xfmShards   = 16
	regionBytes = 1 << 30
)

// inputs is a seeded working set: page contents and ids.
type inputs struct {
	seed  int64
	ids   []sfm.PageID
	pages [][]byte
}

// genInputs builds n pages from seed. Every run of batchPages pages
// holds the same mix, so one seed's batches cost about what another's
// do: sameFilledPerBatch zero-filled pages and the rest dealt round
// robin over the corpora in corpus.Names(), random (incompressible)
// data included, in a seeded order. The equal corpus shares are the
// issue's "drawn from corpus.Names()", not a measured mix. The same
// seed always gives the same pages.
func genInputs(seed int64, n int) *inputs {
	names := corpus.Names()
	gens := make([]corpus.Generator, len(names))
	for i, name := range names {
		g, err := corpus.Get(name)
		if err != nil {
			panic(err)
		}
		gens[i] = g
	}
	r := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, ids: make([]sfm.PageID, n), pages: make([][]byte, n)}
	kinds := make([]int, batchPages) // -1 = same-filled, else a corpus index
	for i := range kinds {
		kinds[i] = -1
		if i >= sameFilledPerBatch {
			kinds[i] = i % len(gens)
		}
	}
	for i := 0; i < n; i++ {
		if i%batchPages == 0 {
			r.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		in.ids[i] = sfm.PageID(i + 1)
		page := make([]byte, pageSize)
		if k := kinds[i%batchPages]; k >= 0 {
			copy(page, gens[k](r.Int63(), pageSize))
		}
		in.pages[i] = page
	}
	return in
}

// pickDemand fills pos with demandPerStep distinct positions in
// [0, batchPages), derived from (seed, step) only.
func pickDemand(seed int64, step int, pos *[demandPerStep]int) {
	x := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(step))
	for n := 0; n < demandPerStep; {
		x = splitmix64(x)
		p := int(x % batchPages)
		dup := false
		for _, q := range pos[:n] {
			dup = dup || q == p
		}
		if !dup {
			pos[n] = p
			n++
		}
	}
}

// newXFM builds the paper-path backend: xdeflate, side-band ECC on, the
// default NMA config of a 32 Gb device and the Skylake mapping.
// shards == 0 builds the unsharded backend.
func newXFM(shards int) (*xfm.Backend, error) {
	sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
	drv := xfm.NewDriver(sim)
	m := memctrl.SkylakeMapping(4, 2, dram.Device32Gb)
	if shards == 0 {
		return xfm.NewBackend(compress.NewXDeflate(), regionBytes, drv, m)
	}
	return xfm.NewShardedBackend(compress.NewXDeflate(), regionBytes, shards, 0, drv, m)
}

// newCPU builds the zswap-style baseline with the same codec, shards and
// region as the XFM batch backend.
func newCPU() *sfm.ShardedBackend {
	return sfm.NewShardedBackend(compress.NewXDeflate(), regionBytes, xfmShards, 0)
}

// fingerprint is everything simulated about a run: counters that must
// not depend on host timing, tracing or telemetry.
type fingerprint struct {
	Backend                               sfm.BackendStats
	ParityBytes, Corrected, Uncorrectable int64
	NMA                                   nma.Stats
	MMIOReads, MMIOWrites, Ioctls         int64
	SPMSyncs                              int64
	Heap                                  sfm.HeapStats
	PromotionRate                         float64
	SimDuration                           dram.Ps
	TraceRecords                          int
}

func fingerprintOf(be sfm.Backend, xb *xfm.Backend) fingerprint {
	fp := fingerprint{Backend: be.Stats()}
	if xb != nil {
		fp.ParityBytes, fp.Corrected, fp.Uncorrectable = xb.ECCStats()
		fp.NMA = xb.Driver().NMAStats()
		fp.MMIOReads, fp.MMIOWrites, fp.Ioctls = xb.Driver().MMIOStats()
		fp.SPMSyncs = xb.SPMSyncs()
	}
	return fp
}

func webFingerprint(xb *xfm.Backend, res workload.Result) fingerprint {
	fp := fingerprintOf(xb, xb)
	fp.Heap = res.HeapStats
	fp.PromotionRate = res.PromotionRate
	fp.SimDuration = res.Duration
	fp.TraceRecords = len(res.Trace)
	return fp
}

// hash is a short printable digest of the fingerprint.
func (f fingerprint) hash() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", f)
	return fmt.Sprintf("%016x", h.Sum64())
}
