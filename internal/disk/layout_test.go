package disk

import (
	"bytes"
	"fmt"
	"testing"
)

// Each File owns its extent's bytes. These tests pin the storage
// layout: data written to one extent survives any number of later
// allocations and writes elsewhere, and page numbering and I/O
// accounting follow the same fixed sequence they always have.

// fill returns n bytes of a pattern distinct per seed.
func fill(n int64, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + seed*31 + i>>8)
	}
	return b
}

// layoutPoints returns n deterministic points of dimensionality dim
// whose coordinates survive the float32 round trip exactly.
func layoutPoints(n, dim, seed int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = float64((i*dim+j+seed*13)%1000) / 8
		}
		pts[i] = p
	}
	return pts
}

func samePoints(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestExtentSurvivesLaterAllocations(t *testing.T) {
	d := New(DefaultParams())
	first := d.Alloc(3*8192 + 100)
	want := fill(first.Size(), 1)
	first.WriteAt(want, 0)

	for i := 0; i < 40; i++ {
		d.Alloc(int64(1 + i*997))
	}
	pts := layoutPoints(500, 60, 2)
	pf := NewPointFile(d, 60, len(pts))
	pf.AppendAll(pts)
	for i := 0; i < 10; i++ {
		NewPointFile(d, 60, 1000)
	}

	got := make([]byte, len(want))
	first.ReadAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("first extent changed after later allocations")
	}
	if !samePoints(pf.ReadAll(), pts) {
		t.Fatal("point file changed after later allocations")
	}
}

func TestWritesNeverReachEarlierExtents(t *testing.T) {
	d := NewBuffered(DefaultParams(), BufferConfig{Pages: 4, Prefetch: 2})
	type extent struct {
		f    *File
		want []byte
	}
	var files []extent
	var pfs []*PointFile
	var pfPts [][][]float64
	check := func(step string) {
		t.Helper()
		for i, e := range files {
			got := make([]byte, len(e.want))
			e.f.ReadAt(got, 0)
			if !bytes.Equal(got, e.want) {
				t.Fatalf("%s: extent %d changed", step, i)
			}
		}
		for i, pf := range pfs {
			if !samePoints(pf.ReadAll(), pfPts[i]) {
				t.Fatalf("%s: point file %d changed", step, i)
			}
		}
	}
	for i := 0; i < 12; i++ {
		// Sizes straddle page boundaries: whole pages, one byte over,
		// one byte under, and sub-page files.
		size := int64(i%4)*8192 + int64(i%3) - 1
		if size < 1 {
			size = 1
		}
		f := d.Alloc(size)
		// Zero the new extent's bytes in full, then write the pattern:
		// the whole-extent write is what would spill into a
		// neighbour if extents overlapped.
		f.WriteAt(make([]byte, size), 0)
		e := extent{f: f, want: fill(size, i)}
		f.WriteAt(e.want, 0)
		files = append(files, e)
		check(fmt.Sprintf("after file %d", i))
		if i%3 == 0 {
			pts := layoutPoints(200+i, 60, i)
			pf := NewPointFile(d, 60, len(pts))
			pf.AppendAll(pts)
			pfs, pfPts = append(pfs, pf), append(pfPts, pts)
			check(fmt.Sprintf("after point file %d", len(pfs)-1))
		}
	}
	// Rewrite every extent back to front; each rewrite may only
	// change its own bytes.
	for i := len(files) - 1; i >= 0; i-- {
		files[i].want = fill(files[i].f.Size(), 100+i)
		files[i].f.WriteAt(files[i].want, 0)
		check(fmt.Sprintf("after rewriting file %d", i))
	}
}

// TestAllocationLayoutPinned replays a fixed allocation and access
// sequence and compares page numbers, extent sizes and counters with
// the values the simulator has always produced for it.
func TestAllocationLayoutPinned(t *testing.T) {
	type alloc struct{ start, pages int64 }
	run := func(cfg BufferConfig) ([]alloc, int64, Counters) {
		d := NewBuffered(DefaultParams(), cfg)
		var files []*File
		for _, size := range []int64{0, 1, 8192, 8193, 3 * 8192, 100000, 8191} {
			files = append(files, d.Alloc(size))
		}
		small := NewPointFile(d, 60, 1000)
		big := NewPointFile(d, 3000, 3) // each point spans two pages
		var out []alloc
		for _, f := range files {
			out = append(out, alloc{f.StartPage(), f.Pages()})
		}
		out = append(out, alloc{small.File().StartPage(), small.File().Pages()})
		out = append(out, alloc{big.File().StartPage(), big.File().Pages()})

		buf := make([]byte, 9000)
		files[3].WriteAt(buf[:8193], 0)
		files[4].ReadAt(buf[:100], 8000)
		files[5].ReadAt(buf, 50000)
		files[5].WriteAt(buf[:10], 99990)
		files[1].ReadAt(buf[:1], 0)
		files[4].TouchPages(1, 2)
		files[4].TouchPagesWrite(0, 3)
		small.AppendAll(layoutPoints(700, 60, 3))
		small.ReadRange(100, 450)
		small.ReadPoint(5)
		big.AppendAll(layoutPoints(3, 3000, 4))
		big.ReadPoint(1)
		d.FlushBuffers()
		return out, d.AllocatedPages(), d.Counters()
	}
	wantAllocs := []alloc{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {5, 3}, {8, 13}, {21, 1},
		{22, 30}, {52, 6},
	}
	cases := []struct {
		name     string
		cfg      BufferConfig
		counters Counters
	}{
		{"unbuffered", BufferConfig{}, Counters{Seeks: 11, Transfers: 57}},
		{"buffered", BufferConfig{Pages: 4, Prefetch: 2},
			Counters{Seeks: 19, Transfers: 59, Hits: 6, Misses: 51, Evictions: 23, Writebacks: 14, Prefetches: 6}},
	}
	for _, tc := range cases {
		allocs, pages, c := run(tc.cfg)
		if fmt.Sprint(allocs) != fmt.Sprint(wantAllocs) {
			t.Errorf("%s: extents (start, pages) = %v, want %v", tc.name, allocs, wantAllocs)
		}
		if pages != 58 {
			t.Errorf("%s: AllocatedPages = %d, want 58", tc.name, pages)
		}
		if c != tc.counters {
			t.Errorf("%s: counters = %#v, want %#v", tc.name, c, tc.counters)
		}
	}
}
