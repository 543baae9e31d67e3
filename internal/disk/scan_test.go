package disk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scanPoints returns n points whose float32 encodings cover the values
// a decode can get wrong: signed zeros, subnormals, infinities, NaN
// payloads, and ordinary values.
func scanPoints(n, dim int, rng *rand.Rand) [][]float64 {
	special := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		-math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffa00000)}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			if rng.Intn(5) == 0 {
				pts[i][j] = float64(special[rng.Intn(len(special))])
			} else {
				pts[i][j] = rng.NormFloat64() * 1e3
			}
		}
	}
	return pts
}

// widened returns p as the file stores it: every coordinate rounded
// to float32.
func widened(p []float64) []float64 {
	out := make([]float64, len(p))
	for j, v := range p {
		out[j] = float64(float32(v))
	}
	return out
}

func sameRowBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Scan must hand out exactly the rows ReadRange returns for the same
// chunks, bit for bit, and charge exactly the same I/O, on every page
// layout: many points per page, a page run cut by the chunk boundary,
// and points larger than a page.
func TestScanMatchesReadRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{3, 60, 3000} {
		for _, buffer := range []int{0, 4} {
			n := 500
			if dim > 100 {
				n = 60
			}
			pts := scanPoints(n, dim, rng)
			open := func() *PointFile {
				d := NewBuffered(DefaultParams(), BufferConfig{Pages: buffer})
				pf := NewPointFile(d, dim, n)
				pf.AppendAll(pts)
				d.FlushBuffers()
				d.ResetCounters()
				return pf
			}
			for trial := 0; trial < 20; trial++ {
				start := rng.Intn(n)
				end := start + rng.Intn(n-start+1)
				chunk := 1 + rng.Intn(n/6)
				label := fmt.Sprintf("dim=%d buffer=%d [%d,%d) chunk=%d", dim, buffer, start, end, chunk)

				ref := open()
				var want [][]float64
				var wantIO []Counters
				for off := start; off < end; off += chunk {
					c := end - off
					if c > chunk {
						c = chunk
					}
					want = append(want, ref.ReadRange(off, c)...)
					wantIO = append(wantIO, ref.File().Disk().Counters())
				}

				pf := open()
				var got [][]float64
				var gotIO []Counters
				pf.Scan(start, end, chunk, func(rows [][]float64) {
					for _, r := range rows {
						got = append(got, append([]float64(nil), r...))
					}
					gotIO = append(gotIO, pf.File().Disk().Counters())
				})
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
				}
				for i := range want {
					if !sameRowBits(got[i], want[i]) {
						t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
					}
					if stored := widened(pts[start+i]); !sameRowBits(got[i], stored) {
						t.Fatalf("%s: row %d = %v, stored %v", label, i, got[i], stored)
					}
				}
				if len(gotIO) != len(wantIO) {
					t.Fatalf("%s: %d chunks, want %d", label, len(gotIO), len(wantIO))
				}
				for i := range wantIO {
					if gotIO[i] != wantIO[i] {
						t.Fatalf("%s: counters after chunk %d %+v, want %+v", label, i, gotIO[i], wantIO[i])
					}
				}
			}
		}
	}
}

// The chunk buffer is reused: every chunk lands in the same storage,
// and a caller that reorders or compacts the row slice of one chunk in
// place (the resampled predictor's Bernoulli compaction) still gets
// the correct rows in the next.
func TestScanReusesOneBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, dim, chunk = 300, 7, 64
	pts := scanPoints(n, dim, rng)
	pf := NewPointFile(New(DefaultParams()), dim, n)
	pf.AppendAll(pts)

	var first *float64
	next := 0
	pf.Scan(0, n, chunk, func(rows [][]float64) {
		if first == nil {
			first = &rows[0][0]
		} else if &rows[0][0] != first {
			t.Fatalf("chunk at %d decoded into new storage", next)
		}
		for i, r := range rows {
			if !sameRowBits(r, float32Round(pts[next+i])) {
				t.Fatalf("row %d = %v, want %v", next+i, r, pts[next+i])
			}
		}
		next += len(rows)
		// Reorder the row slices in place, as a compaction would.
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	})
	if next != n {
		t.Fatalf("scan visited %d rows, want %d", next, n)
	}
}

func float32Round(p []float64) []float64 {
	out := make([]float64, len(p))
	for i, v := range p {
		out[i] = float64(float32(v))
	}
	return out
}

// ReadRangeInto grows one Rows across reads of different sizes and
// dimensionalities and returns the same rows as ReadRange.
func TestReadRangeIntoGrowsAcrossFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := New(DefaultParams())
	var buf Rows
	for _, c := range []struct{ n, dim int }{{50, 60}, {900, 2}, {10, 300}, {2000, 3}} {
		pf := NewPointFile(d, c.dim, c.n)
		pf.AppendAll(scanPoints(c.n, c.dim, rng))
		want := pf.ReadAll()
		got := pf.ReadRangeInto(&buf, 0, c.n)
		for i := range want {
			if !sameRowBits(got[i], want[i]) {
				t.Fatalf("n=%d dim=%d: row %d = %v, want %v", c.n, c.dim, i, got[i], want[i])
			}
		}
	}
}
