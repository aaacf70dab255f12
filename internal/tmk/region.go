package tmk

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
)

// Region is a shared-memory region in the global page-aligned address
// space (the product of Tmk_malloc + Tmk_distribute). The descriptor is
// global; each process lazily materializes local page copies.
type Region struct {
	ID        int32
	StartPage int32
	NPages    int32
	Bytes     int64
	Owner     int // the distributing process; holds the initial copy

	// committed (home-based mode, local flag): every rank has mapped the
	// region and registered its memory window, so home flushes can no
	// longer race an unregistered window. Set by KDistributeCommit.
	committed bool
}

func (r *Region) wire() msg.RegionInfo {
	return msg.RegionInfo{ID: r.ID, StartPage: r.StartPage, Pages: r.NPages, Bytes: r.Bytes}
}

func regionFromWire(ri msg.RegionInfo, owner int) *Region {
	return &Region{ID: ri.ID, StartPage: ri.StartPage, NPages: ri.Pages, Bytes: ri.Bytes, Owner: owner}
}

// Alloc reserves a shared region of nbytes (page-rounded) in the global
// address space and initializes the caller as its owner with a zeroed,
// valid copy — Tmk_malloc. The region is unknown to other processes
// until Distribute.
func (tp *Proc) Alloc(nbytes int) *Region {
	if nbytes <= 0 {
		panic("tmk: Alloc of non-positive size")
	}
	npages := int32((nbytes + PageSize - 1) / PageSize)
	r := &Region{
		ID:        tp.cluster.nextRegionID,
		StartPage: tp.cluster.nextPage,
		NPages:    npages,
		Bytes:     int64(nbytes),
		Owner:     tp.rank,
	}
	tp.cluster.nextRegionID++
	tp.cluster.nextPage += npages
	r.committed = true // the owner's own window exists from mapRegion on
	tp.mapRegion(r, true)
	return r
}

// Distribute announces the region to every other process — Tmk_distribute.
// In home-based mode a second commit round follows: only after every rank
// has acked the announcement (mapping the region and registering its
// window) are the AllocShared waiters released, so no rank can write —
// and therefore flush to a home window — before every window exists.
func (tp *Proc) Distribute(r *Region) {
	for peer := 0; peer < tp.n; peer++ {
		if peer == tp.rank {
			continue
		}
		rep := tp.call(peer, fmt.Sprintf("region %d (distribute to %d)", r.ID, peer),
			&msg.Message{Kind: msg.KDistribute, Region: r.wire()})
		if rep.Kind != msg.KAck {
			panic(fmt.Sprintf("tmk: distribute: unexpected %v", rep.Kind))
		}
	}
	if tp.homeBased {
		for peer := 0; peer < tp.n; peer++ {
			if peer == tp.rank {
				continue
			}
			rep := tp.call(peer, fmt.Sprintf("region %d (commit to %d)", r.ID, peer),
				&msg.Message{Kind: msg.KDistributeCommit, Region: r.wire()})
			if rep.Kind != msg.KAck {
				panic(fmt.Sprintf("tmk: distribute commit: unexpected %v", rep.Kind))
			}
		}
	}
}

// AllocShared is the collective convenience used by SPMD applications:
// every process calls it at the same point; the collective leader — the
// ring-placed barrier root, rank 0 in a static cluster — allocates and
// distributes, everyone returns the same region. The stall message names
// the current leader from the ring view, not a hard-coded rank.
func (tp *Proc) AllocShared(nbytes int) *Region {
	leader := tp.barrierRoot()
	if tp.rank == leader {
		r := tp.Alloc(nbytes)
		tp.Distribute(r)
		return r
	}
	want := tp.expectRegion
	tp.expectRegion++
	tp.blockedOn = fmt.Sprintf("region %d (awaiting distribute from rank %d)", want, leader)
	for tp.regions[want] == nil || (tp.homeBased && !tp.regions[want].committed) {
		tp.sp.WaitOn(tp.regionCond)
	}
	tp.blockedOn = ""
	return tp.regions[want]
}

// mapRegion materializes local storage for a region. The owner starts
// with every page valid (zeroed); others start invalid with no copy.
func (tp *Proc) mapRegion(r *Region, owned bool) {
	if tp.regions[r.ID] != nil {
		return
	}
	tp.regions[r.ID] = r
	mem := make([]byte, int(r.NPages)*PageSize)
	tp.regionMem[r.ID] = mem
	if tp.homeBased {
		// The whole region backs one RDMA window (window id = region id);
		// peers address page pg at byte offset (pg−StartPage)·PageSize.
		tp.os.RegisterWindow(tp.sp, r.ID, mem)
	}
	for i := int32(0); i < r.NPages; i++ {
		pg := r.StartPage + i
		pm := newPageMeta(pg, r, mem[int(i)*PageSize:int(i+1)*PageSize], tp.n)
		if owned || (tp.homeBased && tp.homeOf(pg) == tp.rank) {
			// The home's copy IS the window: incoming flushes keep it
			// current from the moment the region exists, so it starts (and
			// stays) valid here.
			pm.haveCopy = true
			pm.state = pageReadOnly
		}
		tp.pages[pg] = pm
	}
	if tp.rank == tp.barrierRoot() && !owned {
		// The collective leader learned a region distributed by someone else.
		tp.expectRegion = r.ID + 1
	}
	// Replay write notices from intervals learned before the region was
	// mapped here (possible when Distribute races interval exchange).
	tp.store.all(func(rec *intervalRec) {
		if int(rec.proc) == tp.rank {
			return
		}
		for _, pg := range rec.pages {
			if pg >= r.StartPage && pg < r.StartPage+r.NPages {
				pm := tp.pages[pg]
				if pm.addNotice(int(rec.proc), rec.ts) {
					if tp.homeBased && tp.homeOf(pg) == tp.rank {
						// Home copy already holds the flushed data (cannot
						// actually occur before the commit round completes,
						// but mirror applyIntervals defensively).
						if pm.cover[rec.proc] < rec.ts {
							pm.cover[rec.proc] = rec.ts
						}
					} else if pm.state != pageInvalid {
						pm.state = pageInvalid
					}
				}
			}
		}
	})
	tp.regionCond.Broadcast()
}

// page returns the metadata for a global page id.
func (tp *Proc) page(pg int32) *pageMeta {
	pm := tp.pages[pg]
	if pm == nil {
		panic(fmt.Sprintf("tmk: rank %d: access to unmapped page %d", tp.rank, pg))
	}
	return pm
}

// ReadBytes returns a read-only view of [off, off+n) in the region,
// faulting pages valid as needed. The returned slice aliases the local
// copy; callers must not write through it.
func (tp *Proc) ReadBytes(r *Region, off, n int) []byte {
	tp.checkRange(r, off, n)
	tp.faultRange(r, off, n, false)
	return tp.regionMem[r.ID][off : off+n : off+n]
}

// WriteAt copies data into the region at off.
func (tp *Proc) WriteAt(r *Region, off int, data []byte) {
	tp.writeRange(r, off, len(data), func(dst []byte) { copy(dst, data) })
}

// writeRange runs fill on the region's bytes [off, off+n). The store is
// performed with asynchronous request delivery masked, after re-verifying
// that every touched page is still writable: a request handler that runs
// during the fault (a lock grant closing our interval) can revert pages
// to read-only, and a raw store then would bypass the twin — the exact
// hazard mprotect re-trapping closes in real TreadMarks.
func (tp *Proc) writeRange(r *Region, off, n int, fill func(dst []byte)) {
	tp.checkRange(r, off, n)
	if n == 0 {
		return
	}
	for {
		tp.faultRange(r, off, n, true)
		tp.tr.DisableAsync(tp.sp)
		if tp.rangeWritable(r, off, n) {
			fill(tp.regionMem[r.ID][off : off+n : off+n])
			tp.tr.EnableAsync(tp.sp)
			return
		}
		tp.tr.EnableAsync(tp.sp)
	}
}

// rangeWritable reports whether every page covering [off, off+n) is in
// the writable (twinned) state.
func (tp *Proc) rangeWritable(r *Region, off, n int) bool {
	first := r.StartPage + int32(off/PageSize)
	last := r.StartPage + int32((off+n-1)/PageSize)
	for pg := first; pg <= last; pg++ {
		if tp.page(pg).state != pageWritable {
			return false
		}
	}
	return true
}

func (tp *Proc) checkRange(r *Region, off, n int) {
	if off < 0 || n < 0 || int64(off)+int64(n) > int64(r.NPages)*PageSize {
		panic(fmt.Sprintf("tmk: range [%d,%d) outside region %d (%d pages)", off, off+n, r.ID, r.NPages))
	}
}

// faultRange runs the fault path over every page the byte range touches.
// In home-based mode a multi-page range batches its home reads: every
// invalid page's Get is posted before any completion is awaited, so the
// span costs max-RTT instead of sum-of-RTTs (the one-sided analogue of
// the homeless scatter-gather diff fetch).
func (tp *Proc) faultRange(r *Region, off, n int, write bool) {
	if n == 0 {
		return
	}
	first := r.StartPage + int32(off/PageSize)
	last := r.StartPage + int32((off+n-1)/PageSize)
	if tp.homeBased && last > first {
		tp.homeFaultRange(first, last, write)
		return
	}
	for pg := first; pg <= last; pg++ {
		pm := tp.page(pg)
		if write {
			if pm.state != pageWritable {
				tp.writeFault(pm)
			}
		} else if pm.state == pageInvalid {
			tp.readFault(pm)
		}
	}
}

// Typed accessors (8-byte float and 4-byte int views of a region).

// ReadF64 reads the i-th float64 slot.
func (tp *Proc) ReadF64(r *Region, i int) float64 {
	b := tp.ReadBytes(r, i*8, 8)
	return f64FromBits(b)
}

// WriteF64 writes the i-th float64 slot.
func (tp *Proc) WriteF64(r *Region, i int, v float64) {
	var b [8]byte
	f64ToBits(b[:], v)
	tp.WriteAt(r, i*8, b[:])
}

// ReadI32 reads the i-th int32 slot.
func (tp *Proc) ReadI32(r *Region, i int) int32 {
	b := tp.ReadBytes(r, i*4, 4)
	return int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}

// WriteI32 writes the i-th int32 slot.
func (tp *Proc) WriteI32(r *Region, i int, v int32) {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	tp.WriteAt(r, i*4, b[:])
}

// RegionByID returns the region with the given allocation id, or nil if
// it has not been mapped on this process yet.
func (tp *Proc) RegionByID(id int32) *Region { return tp.regions[id] }

// ReadF64Span decodes n float64 slots starting at slot idx into a fresh
// slice (one fault check per touched page, not per element).
func (tp *Proc) ReadF64Span(r *Region, idx, n int) []float64 {
	b := tp.ReadBytes(r, idx*8, n*8)
	out := make([]float64, n)
	for i := range out {
		out[i] = f64FromBits(b[i*8:])
	}
	return out
}

// WriteF64Span encodes vals straight into consecutive slots starting at
// idx.
func (tp *Proc) WriteF64Span(r *Region, idx int, vals []float64) {
	tp.writeRange(r, idx*8, len(vals)*8, func(dst []byte) {
		for i, v := range vals {
			f64ToBits(dst[i*8:], v)
		}
	})
}

// Compute charges d of application computation to the process's virtual
// clock (the testbed-CPU cost of the work just performed natively).
func (tp *Proc) Compute(d sim.Time) { tp.sp.Advance(d) }
