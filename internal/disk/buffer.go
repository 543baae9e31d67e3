package disk

// The buffer pool gives the simulated disk the memory hierarchy real
// index stacks have: a fixed budget of page frames caches recently
// touched pages, so re-reads of hot pages (upper-tree directory pages,
// boundary pages of chunked scans) are served from memory instead of
// being priced as physical I/O.
//
// The pool is a cost-accounting layer only. Page bytes always live in
// the extent of the File that owns them and writes go through
// immediately, so data read back is identical with or without a pool;
// what the pool changes is when and whether seeks and transfers are
// charged:
//
//   - a touch of a resident page is a hit: no seek, no transfer;
//   - a read miss charges the fetch like an uncached access and caches
//     the page;
//   - a write miss allocates a frame dirty without a fetch (the sweep
//     supplies the whole page, as the bulk loaders do) and defers its
//     transfer to write-back on eviction or FlushBuffers;
//   - a read miss that continues a sequential run fetches up to
//     Prefetch further pages of the same extent ahead of the sweep;
//   - a dirty eviction writes back its page and clusters consecutive
//     dirty resident pages into the same sequential sweep (see
//     clusterWriteback).
//
// Replacement is CLOCK (a one-bit LRU approximation): frames touched
// since the hand last passed survive one sweep; pinned frames are
// never reclaimed. Pages of an in-flight multi-page access are pinned
// while the rest of the range faults in, so a sweep wider than the
// pool cannot evict its own pages mid-access; when every frame is
// pinned the access bypasses the pool and is charged directly.
//
// All pool state is guarded by Disk.mu; every method below runs with
// the mutex held.

// BufferConfig configures the buffer pool of a Disk (see NewBuffered).
type BufferConfig struct {
	// Pages is the number of page frames the pool may hold. Zero
	// disables buffering entirely: the disk charges the uncached cost
	// model bit for bit.
	Pages int
	// Prefetch is the number of pages fetched ahead when a read miss
	// continues a sequential run, bounded by the extent of the file
	// being read. Zero disables prefetching.
	Prefetch int
}

// frame is one page slot of the pool.
type frame struct {
	page  int64 // absolute page number
	pin   int   // >0 while part of an in-flight access
	ref   bool  // CLOCK reference bit
	dirty bool  // written since fetch; write-back owed on eviction
}

type bufferPool struct {
	cfg    BufferConfig
	frames []frame
	table  map[int64]int // absolute page -> frame index
	hand   int           // CLOCK hand
	// lastPage is the last page touched through the pool (hit or
	// miss), used to detect sequential runs for prefetching. Distinct
	// from Disk.lastPage, which tracks the physical head and is not
	// advanced by hits.
	lastPage int64
}

func newBufferPool(cfg BufferConfig) *bufferPool {
	return &bufferPool{cfg: cfg, table: make(map[int64]int, cfg.Pages), lastPage: noPage}
}

// access routes one sequential sweep over the inclusive page range
// [first, last] of f's extent through the pool. The whole range is
// pinned while it faults in, then unpinned.
func (bp *bufferPool) access(d *Disk, f *File, first, last int64, write bool) {
	extentLast := f.startPage + f.numPages - 1
	for page := first; page <= last; page++ {
		bp.touch(d, page, extentLast, write)
	}
	for page := first; page <= last; page++ {
		if fi, ok := bp.table[page]; ok && bp.frames[fi].pin > 0 {
			bp.frames[fi].pin--
		}
	}
}

// touch serves one page of an access: hit, or fault it in (pinned).
func (bp *bufferPool) touch(d *Disk, page, extentLast int64, write bool) {
	sequential := page == bp.lastPage+1
	bp.lastPage = page
	if fi, ok := bp.table[page]; ok {
		fr := &bp.frames[fi]
		d.counters.Hits++
		fr.ref = true
		fr.pin++
		if write {
			fr.dirty = true
		}
		return
	}
	d.counters.Misses++
	fi, ok := bp.victim(d)
	if !ok {
		// Every frame is pinned by this very access: bypass the pool
		// for this page and charge it like an uncached touch.
		d.transfer(page)
		return
	}
	if !write {
		d.transfer(page)
	}
	bp.table[page] = fi
	bp.frames[fi] = frame{page: page, pin: 1, ref: true, dirty: write}
	if sequential && !write && bp.cfg.Prefetch > 0 {
		bp.prefetch(d, page+1, extentLast)
	}
}

// prefetch fetches up to cfg.Prefetch pages starting at from, stopping
// at the end of the extent, at an already-resident page, or when no
// frame can be reclaimed. Prefetched frames enter with the reference
// bit clear, so unused prefetches are the first CLOCK victims.
func (bp *bufferPool) prefetch(d *Disk, from, extentLast int64) {
	for page := from; page < from+int64(bp.cfg.Prefetch) && page <= extentLast; page++ {
		if _, ok := bp.table[page]; ok {
			return
		}
		fi, ok := bp.victim(d)
		if !ok {
			return
		}
		d.counters.Prefetches++
		d.transfer(page)
		bp.table[page] = fi
		bp.frames[fi] = frame{page: page}
	}
}

// victim returns a free frame index, growing the pool up to its budget
// and then reclaiming via CLOCK (dirty victims are written back). ok
// is false when every frame is pinned.
func (bp *bufferPool) victim(d *Disk) (int, bool) {
	if len(bp.frames) < bp.cfg.Pages {
		bp.frames = append(bp.frames, frame{})
		return len(bp.frames) - 1, true
	}
	// Two full sweeps: the first clears reference bits, the second
	// reclaims the first unpinned frame it cleared.
	for i := 0; i < 2*len(bp.frames); i++ {
		fi := bp.hand
		fr := &bp.frames[fi]
		bp.hand = (bp.hand + 1) % len(bp.frames)
		if fr.pin > 0 {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		d.counters.Evictions++
		if fr.dirty {
			d.counters.Writebacks++
			d.transfer(fr.page)
			bp.clusterWriteback(d, fr.page+1)
		}
		delete(bp.table, fr.page)
		return fi, true
	}
	return 0, false
}

// clusterWriteback extends a dirty eviction's write into a sequential
// sweep: consecutive dirty resident pages following the victim are
// written back (staying resident, now clean) while the head is already
// positioned there. Without it, interleaved evictions write dirty pages
// back one at a time in CLOCK order, scattering seeks that the uncached
// model's batched writes never paid.
func (bp *bufferPool) clusterWriteback(d *Disk, from int64) {
	for page := from; ; page++ {
		fi, ok := bp.table[page]
		if !ok {
			return
		}
		fr := &bp.frames[fi]
		if !fr.dirty || fr.pin > 0 {
			return
		}
		d.counters.Writebacks++
		d.transfer(page)
		fr.dirty = false
	}
}
