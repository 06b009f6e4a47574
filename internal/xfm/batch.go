package xfm

import (
	"xfm/internal/dram"
	"xfm/internal/ecc"
	"xfm/internal/sfm"
)

// Batched swap paths. Each batch splits into a parallel phase (pure
// per-page work: (de)compression via the inner store, ECC parity math
// and verification) and a serial phase (driver submissions, parity-map
// and slot bookkeeping) run in input order. Backend's batch and
// single-page entry points share the per-page steps — finishOut and
// finishIn (backend.go) for the serial phase, verify for the parallel
// one — and differ only in the fan-out. Because the serial phase runs
// in the order a page-at-a-time loop would use, and driver.AdvanceTo
// is idempotent at a fixed timestamp, batch results, stats, and NMA
// accounting are identical to serial calls.

// SwapOutBatch implements sfm.Backend: the inner store compresses the
// batch (in parallel when the inner store is sharded), ECC parity is
// computed on every core, and the offload submissions replay serially.
func (b *Backend) SwapOutBatch(now dram.Ps, pages []sfm.PageOut) []error {
	hBatchPages.Observe(float64(len(pages)))
	errs := b.inner.SwapOutBatch(now, pages)
	pars := make([][]byte, len(pages))
	b.pool.Run(len(pages), b.workers, func(_, i int) {
		if errs[i] == nil {
			pars[i] = ecc.PageParity(pages[i].Data)
		}
	})
	b.driver.AdvanceTo(now)
	for i, p := range pages {
		if errs[i] == nil {
			b.finishOut(now, p.ID, p.Data, pars[i])
		}
	}
	return errs
}

// SwapInBatch implements sfm.Backend: the inner store decompresses the
// batch, parity verification fans out (the parity map sees only reads
// during the parallel phase), and driver accounting replays serially.
func (b *Backend) SwapInBatch(now dram.Ps, pages []sfm.PageIn, offload bool) []error {
	hBatchPages.Observe(float64(len(pages)))
	errs := b.inner.SwapInBatch(now, pages, offload)
	for i, p := range pages {
		if errs[i] == nil {
			b.injectIfChecked(p.ID, p.Dst)
		}
	}
	checks := make([]eccCheck, len(pages))
	b.pool.Run(len(pages), b.workers, func(_, i int) {
		if errs[i] == nil {
			checks[i] = b.verify(pages[i].ID, pages[i].Dst)
		}
	})
	b.driver.AdvanceTo(now)
	for i, p := range pages {
		if errs[i] == nil {
			errs[i] = b.finishIn(now, p.ID, p.Dst, offload, checks[i])
		}
	}
	return errs
}

// SwapOutBatch implements sfm.Backend: the multi-channel
// split-and-compress of every page runs in parallel (it touches no
// shared state), then slots are placed and offloads submitted in input
// order.
func (g *GroupBackend) SwapOutBatch(now dram.Ps, pages []sfm.PageOut) []error {
	errs := make([]error, len(pages))
	cls := make([]CompressedLayout, len(pages))
	g.pool.Run(len(pages), 0, func(_, i int) {
		cls[i], errs[i] = g.compressPage(pages[i].ID, pages[i].Data)
	})
	for i, p := range pages {
		if errs[i] == nil {
			errs[i] = g.placeCompressed(now, p.ID, cls[i])
		}
	}
	return errs
}

// SwapInBatch implements sfm.Backend: per-DIMM decompression and
// gathering run in parallel (the slot map sees only reads), then slot
// removal and offload submission replay in input order. A page that
// appears twice in one batch decompresses twice but only the first
// occurrence succeeds, matching a serial loop.
func (g *GroupBackend) SwapInBatch(now dram.Ps, pages []sfm.PageIn, offload bool) []error {
	errs := make([]error, len(pages))
	cls := make([]CompressedLayout, len(pages))
	g.pool.Run(len(pages), 0, func(_, i int) {
		cls[i], errs[i] = g.decompressPage(pages[i].ID, pages[i].Dst)
	})
	for i, p := range pages {
		if errs[i] != nil {
			continue
		}
		if _, ok := g.slots[p.ID]; !ok {
			// An earlier batch element already swapped this id in.
			errs[i] = sfm.ErrNotFound
			continue
		}
		g.finishSwapIn(now, p.ID, cls[i], offload)
	}
	return errs
}
