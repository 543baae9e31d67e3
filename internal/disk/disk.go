// Package disk simulates a page-granular disk with the cost model used
// throughout Lang & Singh (SIGMOD 2001): every access to a page that is
// not adjacent to the previously accessed page costs one seek
// (t_seek, average seek plus rotational latency), and every page moved
// costs one transfer (t_xfer, the time to ship one page at the disk's
// bandwidth).
//
// The disk stores real bytes, so code built on top of it (the on-disk
// bulk loader, the resampling predictor's k consecutive areas) actually
// round-trips its data rather than merely pricing hypothetical I/O.
// Each File owns the bytes of its own page-aligned extent; the disk
// only numbers pages, so allocating an extent costs time proportional
// to its size, not to everything allocated before it.
// Counters can be snapshotted and diffed to attribute cost to phases.
//
// A disk may carry a buffer pool (NewBuffered): a CLOCK page cache with
// a fixed frame budget that absorbs re-reads of resident pages, defers
// the cost of page writes to write-back, and optionally prefetches
// ahead of sequential reads. A zero budget reproduces the uncached cost
// model bit for bit; see BufferConfig.
package disk

import (
	"fmt"
	"sort"
	"sync"
)

// Params describes the physical characteristics of the simulated disk.
type Params struct {
	// PageBytes is the size of one disk page in bytes.
	PageBytes int
	// SeekSeconds is the average seek plus rotational latency.
	SeekSeconds float64
	// XferSeconds is the transfer time for a single page.
	XferSeconds float64
}

// DefaultParams are the parameters the paper assumes in Section 4.6:
// 8 KByte pages, 10 ms average seek plus latency, and a 20 MB/s
// bandwidth giving 0.4 ms per page transfer.
func DefaultParams() Params {
	return Params{PageBytes: 8192, SeekSeconds: 0.010, XferSeconds: 0.0004}
}

// WithPageBytes returns a copy of p with the page size replaced and the
// transfer time rescaled proportionally (constant bandwidth), as the
// paper does when sweeping page sizes in Section 6.1.
func (p Params) WithPageBytes(pageBytes int) Params {
	if pageBytes <= 0 {
		panic("disk: page size must be positive")
	}
	scaled := p
	scaled.XferSeconds = p.XferSeconds * float64(pageBytes) / float64(p.PageBytes)
	scaled.PageBytes = pageBytes
	return scaled
}

// Counters accumulates disk activity. The buffer-pool fields stay zero
// on an unbuffered disk (and on a buffered one with budget zero), so
// uncached counter streams are unchanged by their presence.
type Counters struct {
	// Seeks is the number of accesses to a page not adjacent to the
	// previously accessed page.
	Seeks int64
	// Transfers is the number of pages moved between disk and memory
	// (cache fetches, write-backs and prefetches included).
	Transfers int64
	// Hits is the number of page touches served by the buffer pool
	// without physical I/O.
	Hits int64
	// Misses is the number of page touches that were not resident in
	// the buffer pool.
	Misses int64
	// Evictions is the number of frames the pool reclaimed.
	Evictions int64
	// Writebacks is the number of dirty pages written back to disk
	// (on eviction or flush); each write-back is also a transfer.
	Writebacks int64
	// Prefetches is the number of pages fetched ahead of sequential
	// reads; each prefetch is also a transfer.
	Prefetches int64
}

// Add returns the element-wise sum of c and o.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Seeks:      c.Seeks + o.Seeks,
		Transfers:  c.Transfers + o.Transfers,
		Hits:       c.Hits + o.Hits,
		Misses:     c.Misses + o.Misses,
		Evictions:  c.Evictions + o.Evictions,
		Writebacks: c.Writebacks + o.Writebacks,
		Prefetches: c.Prefetches + o.Prefetches,
	}
}

// Sub returns the element-wise difference c - o.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Seeks:      c.Seeks - o.Seeks,
		Transfers:  c.Transfers - o.Transfers,
		Hits:       c.Hits - o.Hits,
		Misses:     c.Misses - o.Misses,
		Evictions:  c.Evictions - o.Evictions,
		Writebacks: c.Writebacks - o.Writebacks,
		Prefetches: c.Prefetches - o.Prefetches,
	}
}

// CostSeconds prices the counters under params: seeks*t_seek +
// transfers*t_xfer. Buffer hits are free; write-backs and prefetches
// are already included in Transfers.
func (c Counters) CostSeconds(p Params) float64 {
	return float64(c.Seeks)*p.SeekSeconds + float64(c.Transfers)*p.XferSeconds
}

// HitRate returns the fraction of page touches served from the buffer
// pool, or 0 when no touches went through a pool.
func (c Counters) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// String renders the counters for reports.
func (c Counters) String() string {
	s := fmt.Sprintf("%d seeks, %d transfers", c.Seeks, c.Transfers)
	if c.Hits != 0 || c.Misses != 0 {
		s += fmt.Sprintf(", %d hits, %d misses (%.1f%% hit rate)", c.Hits, c.Misses, 100*c.HitRate())
	}
	return s
}

// Disk is a simulated disk. The zero value is not usable; construct
// with New or NewBuffered.
//
// All bookkeeping state (counters, head position, allocation metadata,
// the buffer pool) is guarded by a mutex so that observability code may
// snapshot and diff counters, and allocate new extents, concurrently
// with accesses on other goroutines (e.g. while parallelFor workers
// run). The page data, held by each File, is not guarded: the
// simulation models a single logical I/O stream, and all data accesses
// must stay on one goroutine at a time.
type Disk struct {
	params Params

	mu       sync.Mutex
	pages    int64 // allocated pages
	counters Counters
	lastPage int64 // last page under the head, -1 if none
	pool     *bufferPool
}

// New returns an empty unbuffered disk with the given parameters.
func New(params Params) *Disk {
	return NewBuffered(params, BufferConfig{})
}

// NewBuffered returns an empty disk whose accesses are routed through a
// buffer pool with the given configuration. A zero Pages budget leaves
// the disk unbuffered — bit-for-bit identical cost accounting to New.
func NewBuffered(params Params, cfg BufferConfig) *Disk {
	if params.PageBytes <= 0 {
		panic("disk: page size must be positive")
	}
	if cfg.Pages < 0 {
		panic("disk: negative buffer-pool budget")
	}
	if cfg.Prefetch < 0 {
		panic("disk: negative prefetch depth")
	}
	d := &Disk{params: params, lastPage: noPage}
	if cfg.Pages > 0 {
		d.pool = newBufferPool(cfg)
	}
	return d
}

// Params returns the disk's physical parameters.
func (d *Disk) Params() Params { return d.params }

// Counters returns the activity accumulated since construction or the
// last ResetCounters. Safe for concurrent use with accesses.
func (d *Disk) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counters
}

// Snapshot is Counters under a name that reads as a phase boundary:
// take one before a phase, another after, and Sub them to attribute
// the phase's I/O. Safe for concurrent use with accesses.
func (d *Disk) Snapshot() Counters { return d.Counters() }

// DiffSince returns the activity since a snapshot taken earlier with
// Snapshot or Counters.
func (d *Disk) DiffSince(before Counters) Counters {
	return d.Counters().Sub(before)
}

// ResetCounters zeroes the accumulated activity and forgets the head
// position (the next access will seek). Buffer-pool contents are kept:
// resetting attributes cost, it does not cool the cache — use
// DropBuffers for a cold start.
func (d *Disk) ResetCounters() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.counters = Counters{}
	d.lastPage = noPage
	if d.pool != nil {
		d.pool.lastPage = noPage
	}
}

// noPage marks an unknown head position: the next access always seeks.
const noPage = -1 << 62

// CostSeconds prices the accumulated activity under the disk's params.
func (d *Disk) CostSeconds() float64 { return d.Counters().CostSeconds(d.params) }

// AllocatedPages returns the total number of pages allocated so far.
// Safe for concurrent use with Alloc and accesses.
func (d *Disk) AllocatedPages() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

// Alloc reserves a contiguous extent large enough for size bytes and
// returns a File over it. The extent takes the next free absolute page
// numbers and brings its own zeroed bytes. Allocation itself performs
// no I/O. Safe for concurrent use with counter snapshots and
// AllocatedPages.
func (d *Disk) Alloc(size int64) *File {
	if size < 0 {
		panic("disk: negative allocation")
	}
	pageBytes := int64(d.params.PageBytes)
	numPages := (size + pageBytes - 1) / pageBytes
	if numPages == 0 {
		numPages = 1
	}
	data := make([]byte, numPages*pageBytes)
	d.mu.Lock()
	defer d.mu.Unlock()
	f := &File{
		disk:      d,
		startPage: d.pages,
		numPages:  numPages,
		size:      size,
		data:      data,
	}
	d.pages += numPages
	return f
}

// access records the cost of touching the inclusive page range
// [first, last] of f's extent in one sequential sweep, routed through
// the buffer pool when one is configured.
func (d *Disk) access(f *File, first, last int64, write bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pool == nil {
		// Uncached cost model: one seek unless the sweep continues
		// from the head position (the next page, or a re-touch of the
		// page still under the head), one transfer per page.
		if first != d.lastPage+1 && first != d.lastPage {
			d.counters.Seeks++
		}
		d.counters.Transfers += last - first + 1
		d.lastPage = last
		return
	}
	d.pool.access(d, f, first, last, write)
}

// transfer charges the physical movement of one page and moves the
// head. Callers hold d.mu.
func (d *Disk) transfer(page int64) {
	if page != d.lastPage+1 && page != d.lastPage {
		d.counters.Seeks++
	}
	d.counters.Transfers++
	d.lastPage = page
}

// BufferPages returns the page budget of the disk's buffer pool, or 0
// when the disk is unbuffered.
func (d *Disk) BufferPages() int {
	if d.pool == nil {
		return 0
	}
	return d.pool.cfg.Pages
}

// FlushBuffers writes every dirty cached page back to disk in one
// ascending sweep, charging the write-backs. Pages stay resident. A
// no-op on an unbuffered disk.
func (d *Disk) FlushBuffers() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flushLocked()
}

func (d *Disk) flushLocked() {
	bp := d.pool
	if bp == nil {
		return
	}
	dirty := make([]int64, 0, len(bp.table))
	for page, fi := range bp.table {
		if bp.frames[fi].dirty {
			dirty = append(dirty, page)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	for _, page := range dirty {
		fi := bp.table[page]
		d.counters.Writebacks++
		d.transfer(page)
		bp.frames[fi].dirty = false
	}
}

// DropBuffers flushes dirty pages and then empties the pool, so
// subsequent accesses start from a cold cache. Callers use it between
// staging a dataset and measuring a workload, so the workload does not
// get free hits on (or pay deferred write-backs for) staging pages. A
// no-op on an unbuffered disk.
func (d *Disk) DropBuffers() {
	d.mu.Lock()
	defer d.mu.Unlock()
	bp := d.pool
	if bp == nil {
		return
	}
	d.flushLocked()
	bp.frames = bp.frames[:0]
	bp.table = make(map[int64]int, bp.cfg.Pages)
	bp.hand = 0
	bp.lastPage = noPage
}

// File is a contiguous extent of a Disk. Reads and writes are
// byte-addressed within the file and are charged page-granular I/O.
type File struct {
	disk      *Disk
	startPage int64
	numPages  int64
	size      int64
	data      []byte // the extent's bytes, numPages whole pages
}

// Size returns the logical size of the file in bytes.
func (f *File) Size() int64 { return f.size }

// Disk returns the disk this file lives on.
func (f *File) Disk() *Disk { return f.disk }

// Pages returns the number of pages in the file's extent.
func (f *File) Pages() int64 { return f.numPages }

// StartPage returns the absolute page number of the file's first page.
func (f *File) StartPage() int64 { return f.startPage }

// boundsCheck panics unless [off, off+n) lies within the file's
// logical size. Checking against the logical size rather than the
// extent capacity keeps reads past EOF from silently returning zeros
// out of the slack bytes of the last page.
func (f *File) boundsCheck(off int64, n int) {
	if off < 0 || off+int64(n) > f.size {
		panic(fmt.Sprintf("disk: access [%d, %d) outside file of %d bytes", off, off+int64(n), f.size))
	}
}

// pageRange resolves the absolute pages spanned by the non-empty byte
// range [off, off+n).
func (f *File) pageRange(off int64, n int) (first, last int64) {
	f.boundsCheck(off, n)
	pageBytes := int64(f.disk.params.PageBytes)
	first = f.startPage + off/pageBytes
	last = f.startPage + (off+int64(n)-1)/pageBytes
	return first, last
}

// ReadAt reads len(b) bytes starting at byte offset off, charging the
// page accesses to the disk. Zero-length reads are true no-ops: they
// are bounds-checked but resolve no page, charge no I/O and do not
// move the head.
func (f *File) ReadAt(b []byte, off int64) {
	if len(b) == 0 {
		f.boundsCheck(off, 0)
		return
	}
	first, last := f.pageRange(off, len(b))
	f.disk.access(f, first, last, false)
	copy(b, f.data[off:])
}

// WriteAt writes b starting at byte offset off, charging the page
// accesses to the disk. Zero-length writes are true no-ops, like
// zero-length reads.
func (f *File) WriteAt(b []byte, off int64) {
	if len(b) == 0 {
		f.boundsCheck(off, 0)
		return
	}
	first, last := f.pageRange(off, len(b))
	f.disk.access(f, first, last, true)
	copy(f.data[off:], b)
}

// raw returns the n bytes at off as a view of the extent, without
// charging I/O. It exists for higher-level abstractions in this
// package (PointFile) that encode and decode in place and perform
// their own page-granular accounting via TouchPages.
func (f *File) raw(off int64, n int) []byte {
	f.boundsCheck(off, n)
	return f.data[off : off+int64(n)]
}

// TouchPages charges the I/O for reading count pages starting at the
// file-relative page index start, without moving data.
func (f *File) TouchPages(start, count int64) {
	f.touchPages(start, count, false)
}

// TouchPagesWrite is TouchPages for writes: with a buffer pool the
// touched pages become resident dirty and their transfers are charged
// at write-back; on an unbuffered disk it is identical to TouchPages.
// The on-disk index build uses it to account for directory-page writes
// whose contents the simulation does not need to materialize.
func (f *File) TouchPagesWrite(start, count int64) {
	f.touchPages(start, count, true)
}

func (f *File) touchPages(start, count int64, write bool) {
	if count <= 0 {
		return
	}
	if start < 0 || start+count > f.numPages {
		panic("disk: TouchPages outside file")
	}
	f.disk.access(f, f.startPage+start, f.startPage+start+count-1, write)
}
