package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// FuzzSelectByDim feeds arbitrary byte strings decoded as coordinate
// lists to the quickselect and checks the partition invariant. Run
// with `go test -fuzz=FuzzSelectByDim ./internal/vec`; the seed corpus
// executes as part of the normal test suite.
func FuzzSelectByDim(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2))
	f.Add([]byte{9, 9, 9, 9}, uint8(0))
	f.Add([]byte{255, 0, 128, 64, 32}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw uint8) {
		if len(raw) == 0 {
			return
		}
		pts := make([][]float64, len(raw))
		for i, b := range raw {
			pts[i] = []float64{float64(b)}
		}
		k := int(kRaw) % len(pts)
		SelectByDim(pts, 0, k)
		pivot := pts[k][0]
		for _, p := range pts[:k] {
			if p[0] > pivot {
				t.Fatalf("left element %v above pivot %v", p[0], pivot)
			}
		}
		for _, p := range pts[k+1:] {
			if p[0] < pivot {
				t.Fatalf("right element %v below pivot %v", p[0], pivot)
			}
		}
	})
}

// FuzzSqDistSymmetry checks metric axioms of the distance kernel on
// arbitrary inputs.
func FuzzSqDistSymmetry(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{4, 5, 6})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return
		}
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = float64(a[i]) - 128
			y[i] = float64(b[i]) - 128
		}
		d1, d2 := SqDist(x, y), SqDist(y, x)
		if d1 != d2 {
			t.Fatalf("asymmetric: %v vs %v", d1, d2)
		}
		if d1 < 0 || math.IsNaN(d1) {
			t.Fatalf("invalid distance %v", d1)
		}
		if SqDist(x, x) != 0 {
			t.Fatal("self distance not zero")
		}
	})
}

// FuzzStatsKernels decodes arbitrary bytes as float64 rows of 1 to 70
// dimensions and requires Mean, Variance, MaxVarianceDim and MinMax to
// match the scalar loops bit for bit at every lane width the CPU runs
// (two NaNs count as equal). Run with
// `go test -fuzz=FuzzStatsKernels ./internal/vec`.
func FuzzStatsKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add(make([]byte, 8*60*3), uint8(59))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, dimRaw uint8) {
		dim := 1 + int(dimRaw)%70
		n := len(raw) / (8 * dim)
		if n == 0 {
			return
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, dim)
			for j := range pts[i] {
				off := 8 * (i*dim + j)
				pts[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
			}
		}
		forEachLaneWidth(t, func(lanes int) {
			checkStats(t, pts, fmt.Sprintf("lanes=%d dim=%d n=%d", lanes, dim, n))
		})
	})
}
