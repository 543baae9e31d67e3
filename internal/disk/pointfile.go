package disk

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PointFile stores fixed-dimensionality points as float32 values in a
// File. Points are page-aligned and never span a page boundary: each
// page holds exactly B = PointsPerPage points, matching the paper's
// geometry where an 8 KB page holds floor(8192 / (4*d)) points of
// dimensionality d and a scan of N points costs ceil(N/B) transfers.
//
// All reads and writes go through the owning Disk and are charged
// page-granular I/O.
type PointFile struct {
	file *File
	dim  int
	ppp  int // points per page
	n    int // points written (dense prefix)
	cap  int
}

// EntryBytes returns the on-disk size of one point of the given
// dimensionality.
func EntryBytes(dim int) int { return 4 * dim }

// PointsPerPage returns how many points of the given dimensionality
// fit in one page under params. It is at least 1 so that degenerate
// geometry (e.g. 617 dimensions in 8 KB pages) still makes progress;
// in that single case a "page" spans several physical pages and is
// charged as such.
func PointsPerPage(params Params, dim int) int {
	c := params.PageBytes / EntryBytes(dim)
	if c < 1 {
		c = 1
	}
	return c
}

// NewPointFile allocates space for capacity points of dimensionality
// dim on d. The file starts empty.
func NewPointFile(d *Disk, dim, capacity int) *PointFile {
	if dim <= 0 {
		panic("disk: point dimensionality must be positive")
	}
	if capacity < 0 {
		panic("disk: negative point capacity")
	}
	ppp := PointsPerPage(d.params, dim)
	pages := (capacity + ppp - 1) / ppp
	if pages == 0 {
		pages = 1
	}
	// A point may be bigger than a physical page (ppp clamped to 1);
	// size the extent in bytes to fit either layout.
	perPoint := int64(EntryBytes(dim))
	pageBytes := int64(d.params.PageBytes)
	var size int64
	if perPoint > pageBytes {
		// Each point occupies ceil(perPoint/pageBytes) physical pages.
		pagesPerPoint := (perPoint + pageBytes - 1) / pageBytes
		size = int64(capacity) * pagesPerPoint * pageBytes
	} else {
		size = int64(pages) * pageBytes
	}
	f := d.Alloc(size)
	return &PointFile{file: f, dim: dim, ppp: ppp, cap: capacity}
}

// Dim returns the dimensionality of stored points.
func (pf *PointFile) Dim() int { return pf.dim }

// Len returns the number of points currently stored.
func (pf *PointFile) Len() int { return pf.n }

// Cap returns the maximum number of points the file can hold.
func (pf *PointFile) Cap() int { return pf.cap }

// File returns the underlying extent, for page-level accounting.
func (pf *PointFile) File() *File { return pf.file }

// PointsPerPage returns the number of points stored per page.
func (pf *PointFile) PointsPerPage() int { return pf.ppp }

// PagesFor returns the number of pages occupied by count points laid
// out from index start, i.e. the pages touched by a sequential sweep.
func (pf *PointFile) PagesFor(start, count int) int64 {
	if count <= 0 {
		return 0
	}
	return pf.lastPageOf(start+count-1) - pf.pageOf(start) + 1
}

// pageOf returns the file-relative physical page index of point i's
// first byte.
func (pf *PointFile) pageOf(i int) int64 {
	perPoint := int64(EntryBytes(pf.dim))
	pageBytes := int64(pf.file.disk.params.PageBytes)
	if perPoint > pageBytes {
		pagesPerPoint := (perPoint + pageBytes - 1) / pageBytes
		return int64(i) * pagesPerPoint
	}
	return int64(i) / int64(pf.ppp)
}

// byteOffset returns the byte offset of point i within the file.
func (pf *PointFile) byteOffset(i int) int64 {
	perPoint := int64(EntryBytes(pf.dim))
	pageBytes := int64(pf.file.disk.params.PageBytes)
	if perPoint > pageBytes {
		pagesPerPoint := (perPoint + pageBytes - 1) / pageBytes
		return int64(i) * pagesPerPoint * pageBytes
	}
	page := int64(i) / int64(pf.ppp)
	slot := int64(i) % int64(pf.ppp)
	return page*pageBytes + slot*perPoint
}

// chargeRange accounts one sequential sweep over points [start,
// start+count). Writes are charged as such so a buffer pool can defer
// their transfers to write-back.
func (pf *PointFile) chargeRange(start, count int, write bool) {
	if count <= 0 {
		return
	}
	first := pf.pageOf(start)
	last := pf.lastPageOf(start + count - 1)
	if write {
		pf.file.TouchPagesWrite(first, last-first+1)
	} else {
		pf.file.TouchPages(first, last-first+1)
	}
}

// lastPageOf returns the file-relative page index of point i's last byte.
func (pf *PointFile) lastPageOf(i int) int64 {
	perPoint := int64(EntryBytes(pf.dim))
	pageBytes := int64(pf.file.disk.params.PageBytes)
	if perPoint > pageBytes {
		pagesPerPoint := (perPoint + pageBytes - 1) / pageBytes
		return int64(i)*pagesPerPoint + pagesPerPoint - 1
	}
	return int64(i) / int64(pf.ppp)
}

// Append writes p at the end of the file.
func (pf *PointFile) Append(p []float64) {
	if pf.n >= pf.cap {
		panic("disk: PointFile full")
	}
	pf.WriteAt(pf.n, p)
	pf.n++
}

// AppendAll writes all points in pts at the end of the file in one
// sequential sweep.
func (pf *PointFile) AppendAll(pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	if pf.n+len(pts) > pf.cap {
		panic("disk: PointFile overflow")
	}
	start := pf.n
	for _, p := range pts {
		pf.writeRawPoint(pf.n, p)
		pf.n++
	}
	pf.chargeRange(start, len(pts), true)
}

// WriteAt overwrites the point at index i (a single-page access). The
// dense prefix invariant is the caller's responsibility when writing
// past Len.
func (pf *PointFile) WriteAt(i int, p []float64) {
	if i < 0 || i >= pf.cap {
		panic(fmt.Sprintf("disk: point index %d outside capacity %d", i, pf.cap))
	}
	pf.writeRawPoint(i, p)
	pf.chargeRange(i, 1, true)
}

// writeRawPoint encodes p as float32 values straight into the bytes of
// point i's slot, without charging I/O.
func (pf *PointFile) writeRawPoint(i int, p []float64) {
	if len(p) != pf.dim {
		panic(fmt.Sprintf("disk: point dimension %d != file dimension %d", len(p), pf.dim))
	}
	buf := pf.file.raw(pf.byteOffset(i), EntryBytes(pf.dim))
	for j, v := range p {
		binary.LittleEndian.PutUint32(buf[4*j:], math.Float32bits(float32(v)))
	}
}

// Rows is reusable decode storage for PointFile reads: one flat
// float64 buffer and the row slices over it. The zero value is ready
// to use. The rows a read returns alias the storage, so they stay
// valid only until the next read into the same Rows.
type Rows struct {
	flat []float64
	rows [][]float64
}

// ReadRange reads count points starting at index start as one
// sequential sweep and returns them as fresh slices.
func (pf *PointFile) ReadRange(start, count int) [][]float64 {
	var buf Rows
	return pf.ReadRangeInto(&buf, start, count)
}

// ReadRangeInto is ReadRange decoding into buf's storage, which grows
// as needed and is otherwise reused. The row slices are rebuilt on
// every read, so a caller may reorder or compact the returned slice
// freely between reads.
func (pf *PointFile) ReadRangeInto(buf *Rows, start, count int) [][]float64 {
	if start < 0 || count < 0 || start+count > pf.n {
		panic(fmt.Sprintf("disk: read [%d, %d) outside %d stored points", start, start+count, pf.n))
	}
	if count == 0 {
		return nil
	}
	dim := pf.dim
	if cap(buf.flat) < count*dim {
		buf.flat = make([]float64, count*dim)
	}
	if cap(buf.rows) < count {
		buf.rows = make([][]float64, count)
	}
	flat, rows := buf.flat[:count*dim], buf.rows[:count]
	// Points never span a page boundary, so the points of one page
	// lie back to back: decode each page's run in one pass.
	for i := start; i < start+count; {
		run := pf.ppp - i%pf.ppp
		if run > start+count-i {
			run = start + count - i
		}
		dst := flat[(i-start)*dim : (i-start+run)*dim]
		decodeFloat32s(dst, pf.file.raw(pf.byteOffset(i), run*EntryBytes(dim)))
		i += run
	}
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	pf.chargeRange(start, count, false)
	return rows
}

// Scan reads the points [start, end) in order, in chunks of at most
// chunk points, and calls fn with each chunk. Every chunk is charged
// as one sequential sweep, exactly as ReadRange charges it, before fn
// runs. The chunks are decoded into one buffer that Scan reuses, so
// the rows are valid only until fn returns: fn must copy any row it
// keeps.
func (pf *PointFile) Scan(start, end, chunk int, fn func(rows [][]float64)) {
	if chunk < 1 {
		panic(fmt.Sprintf("disk: scan chunk %d", chunk))
	}
	var buf Rows
	for off := start; off < end; off += chunk {
		c := end - off
		if c > chunk {
			c = chunk
		}
		fn(pf.ReadRangeInto(&buf, off, c))
	}
}

// decodeFloat32s widens the little-endian float32 values of src into
// dst.
func decodeFloat32s(dst []float64, src []byte) {
	src = src[:4*len(dst)]
	for j := range dst {
		dst[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*j:])))
	}
}

// WriteRange overwrites count points starting at index start in one
// sequential sweep. The range must lie within the dense prefix.
func (pf *PointFile) WriteRange(start int, pts [][]float64) {
	if start < 0 || start+len(pts) > pf.n {
		panic(fmt.Sprintf("disk: write [%d, %d) outside %d stored points", start, start+len(pts), pf.n))
	}
	for i, p := range pts {
		pf.writeRawPoint(start+i, p)
	}
	pf.chargeRange(start, len(pts), true)
}

// ReadPoint reads the single point at index i (a random access).
func (pf *PointFile) ReadPoint(i int) []float64 {
	pts := pf.ReadRange(i, 1)
	return pts[0]
}

// ReadAll reads every stored point in one sequential sweep.
func (pf *PointFile) ReadAll() [][]float64 { return pf.ReadRange(0, pf.n) }
