package xfm

import (
	"fmt"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/parallel"
	"xfm/internal/sfm"
)

// GroupBackend is XFM operating in multi-channel mode (§6, Fig. 9): a
// logically contiguous page is physically interleaved across several
// XFM DIMMs; each DIMM's NMA compresses only the chunks it holds
// (with a correspondingly smaller window), and every DIMM places its
// piece at the *same offset* within its SFM region, so the host
// addresses a compressed page with a single offset. The price is
// internal fragmentation: each DIMM reserves the size of the largest
// piece.
type GroupBackend struct {
	layout  MultiChannelLayout
	drivers []*Driver
	mapp    memctrl.Mapping

	newCodec func(window int) compress.Codec
	codec    compress.Codec // window-limited instance used per part

	// Same-offset slot store: id → per-DIMM compressed parts.
	slots map[sfm.PageID]CompressedLayout
	// perDIMMRegion limits each DIMM's reserved bytes.
	perDIMMRegion int64
	reservedBytes int64 // per DIMM (identical across DIMMs by design)

	nextReq   int64
	offloads  int64
	fallbacks int64
	cpuCycles float64
	pool      *parallel.Pool // persistent batch fan-out workers

	stats groupStats
}

// Close releases the backend's worker pool goroutines. Optional: idle
// workers only park on a channel.
func (g *GroupBackend) Close() { g.pool.Close() }

type groupStats struct {
	swapOuts, swapIns int64
	storedBytes       int64 // actual compressed payload across DIMMs
	fragBytes         int64 // same-offset fragmentation across DIMMs
	storedPages       int64
}

// NewGroupBackend builds a multi-channel backend over the given
// drivers (one per DIMM). newCodec builds a window-limited codec for
// the per-DIMM share of the page. perDIMMRegion limits each DIMM's
// SFM region.
func NewGroupBackend(newCodec func(window int) compress.Codec, perDIMMRegion int64,
	drivers []*Driver, m memctrl.Mapping) (*GroupBackend, error) {
	if len(drivers) == 0 {
		return nil, fmt.Errorf("xfm: group needs at least one driver")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	layout := DefaultLayout(len(drivers))
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	for _, d := range drivers {
		if err := d.Paramset(0, perDIMMRegion); err != nil {
			return nil, err
		}
	}
	return &GroupBackend{
		layout:        layout,
		drivers:       drivers,
		mapp:          m,
		newCodec:      newCodec,
		codec:         newCodec(layout.WindowBytes(sfm.PageSize)),
		slots:         map[sfm.PageID]CompressedLayout{},
		perDIMMRegion: perDIMMRegion,
		pool:          parallel.NewPool(0),
	}, nil
}

// DIMMs returns the number of memory modules in the group.
func (g *GroupBackend) DIMMs() int { return g.layout.DIMMs }

// SwapOut implements sfm.Backend: the page is split at the channel
// interleave granularity; each DIMM's share is compressed with the
// reduced window and placed at the same offset on every DIMM.
func (g *GroupBackend) SwapOut(now dram.Ps, id sfm.PageID, data []byte) error {
	cl, err := g.compressPage(id, data)
	if err != nil {
		return err
	}
	return g.placeCompressed(now, id, cl)
}

// compressPage validates a page and splits and compresses it per
// DIMM — the pure half of SwapOut, which SwapOutBatch runs on the
// pool. It only reads the slot map; a page already stored is rejected
// before any compression work.
func (g *GroupBackend) compressPage(id sfm.PageID, data []byte) (CompressedLayout, error) {
	if len(data) != sfm.PageSize {
		return CompressedLayout{}, fmt.Errorf("xfm: page %d has %d bytes, want %d", id, len(data), sfm.PageSize) //xfm:ignore hotpath-alloc cold validation path: wrong page size is a caller bug, never taken steady-state
	}
	if _, dup := g.slots[id]; dup {
		return CompressedLayout{}, sfm.ErrExists
	}
	return g.layout.CompressPage(data, g.newCodec), nil
}

// placeCompressed stores an already-compressed page and submits the
// per-DIMM offload requests — the serial bookkeeping half of SwapOut,
// shared with SwapOutBatch (whose compression runs in parallel).
func (g *GroupBackend) placeCompressed(now dram.Ps, id sfm.PageID, cl CompressedLayout) error {
	if _, dup := g.slots[id]; dup {
		return sfm.ErrExists
	}
	if g.reservedBytes+int64(cl.SlotBytes) > g.perDIMMRegion {
		return sfm.ErrFull
	}
	g.slots[id] = cl
	g.reservedBytes += int64(cl.SlotBytes)
	g.stats.swapOuts++
	g.stats.storedPages++
	g.stats.storedBytes += int64(cl.TotalStored())
	g.stats.fragBytes += int64(cl.FragmentationBytes())
	g.submitAll(now, id, nma.CompressOp)
	return nil
}

// SwapIn implements sfm.Backend: parts are fetched from every DIMM,
// decompressed, and gathered back into host-logical order.
func (g *GroupBackend) SwapIn(now dram.Ps, id sfm.PageID, dst []byte, offload bool) error {
	cl, err := g.decompressPage(id, dst)
	if err != nil {
		return err
	}
	g.finishSwapIn(now, id, cl, offload)
	return nil
}

// decompressPage validates dst, looks up the page's slot and
// decompresses and gathers it straight into dst — the specialized CPU
// fallback "handles both decompression and gathering operations
// without additional memory copies" (§6). It is the pure half of
// SwapIn, which SwapInBatch runs on the pool; it only reads the slot
// map.
func (g *GroupBackend) decompressPage(id sfm.PageID, dst []byte) (CompressedLayout, error) {
	if len(dst) != sfm.PageSize {
		return CompressedLayout{}, fmt.Errorf("xfm: dst has %d bytes, want %d", len(dst), sfm.PageSize) //xfm:ignore hotpath-alloc cold validation path: wrong buffer size is a caller bug, never taken steady-state
	}
	cl, ok := g.slots[id]
	if !ok {
		return CompressedLayout{}, sfm.ErrNotFound
	}
	if _, err := g.layout.DecompressPageInto(dst[:0], cl, g.newCodec, sfm.PageSize); err != nil {
		return CompressedLayout{}, err
	}
	return cl, nil
}

// finishSwapIn removes a decompressed page's slot and submits the
// per-DIMM offload requests — the serial bookkeeping half of SwapIn,
// shared with SwapInBatch. Demand faults fall back to the CPU (§6).
func (g *GroupBackend) finishSwapIn(now dram.Ps, id sfm.PageID, cl CompressedLayout, offload bool) {
	delete(g.slots, id)
	g.reservedBytes -= int64(cl.SlotBytes)
	g.stats.swapIns++
	g.stats.storedPages--
	g.stats.storedBytes -= int64(cl.TotalStored())
	g.stats.fragBytes -= int64(cl.FragmentationBytes())
	if offload {
		g.submitAll(now, id, nma.DecompressOp)
		return
	}
	g.recordFallback(nma.DecompressOp)
	for _, d := range g.drivers {
		d.AdvanceTo(now)
	}
}

// submitAll sends one offload request per DIMM — each NMA handles only
// the chunks it holds, during its own refresh windows — and charges a
// whole-page CPU_Fallback unless every DIMM accepted (the fallback
// runs the scatter-aware function, Fig. 9b). Decompression swaps the
// source and destination groups of compression.
func (g *GroupBackend) submitAll(now dram.Ps, id sfm.PageID, kind nma.OpKind) {
	src := pageGroup(g.mapp, int64(id)*sfm.PageSize)
	dst := pageGroup(g.mapp, g.perDIMMRegion+(int64(id)*sfm.PageSize)%g.perDIMMRegion)
	if kind == nma.DecompressOp {
		src, dst = dst, src
	}
	allOK := true
	for _, d := range g.drivers {
		d.AdvanceTo(now)
		g.nextReq++
		ok, err := d.Submit(nma.Request{
			ID: g.nextReq, Kind: kind,
			SrcGroup: src, DstGroup: dst, Arrive: now,
		})
		if err != nil || !ok {
			allOK = false
		}
	}
	if allOK {
		g.offloads++
	} else {
		g.recordFallback(kind)
	}
}

// recordFallback charges one whole page (de)compressed on the host.
func (g *GroupBackend) recordFallback(kind nma.OpKind) {
	g.fallbacks++
	g.cpuCycles += fallbackCycles(g.codec, kind)
}

// Contains implements sfm.Backend.
func (g *GroupBackend) Contains(id sfm.PageID) bool {
	_, ok := g.slots[id]
	return ok
}

// Compact implements sfm.Backend. The same-offset layout compacts by
// re-packing slots; the model reports zero movement because slot
// reservations are already dense in this in-memory representation.
func (g *GroupBackend) Compact() int64 { return 0 }

// Stats implements sfm.Backend.
func (g *GroupBackend) Stats() sfm.BackendStats {
	return sfm.BackendStats{
		SwapOuts:        g.stats.swapOuts,
		SwapIns:         g.stats.swapIns,
		BytesOut:        g.stats.swapOuts * sfm.PageSize,
		BytesIn:         g.stats.swapIns * sfm.PageSize,
		CompressedBytes: g.stats.storedBytes,
		StoredPages:     g.stats.storedPages,
		CPUCycles:       g.cpuCycles,
		Offloads:        g.offloads,
		Fallbacks:       g.fallbacks,
	}
}

// FragmentationBytes returns the current internal fragmentation the
// same-offset placement costs across all DIMMs (§6: "this comes at
// the cost of some internal fragmentation").
func (g *GroupBackend) FragmentationBytes() int64 { return g.stats.fragBytes }

// ReservedBytesPerDIMM returns the per-DIMM region consumption.
func (g *GroupBackend) ReservedBytesPerDIMM() int64 { return g.reservedBytes }

var _ sfm.Backend = (*GroupBackend)(nil)
