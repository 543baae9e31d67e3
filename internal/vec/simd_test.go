package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The scalar loops below are the reference the vector kernels must
// match bit for bit. They are written out here, not called through
// Mean/Variance/MinMax, so forcing simdLanes cannot route the
// reference through a kernel.

func refMean(pts [][]float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for _, p := range pts {
		for i, v := range p {
			out[i] += v
		}
	}
	n := float64(len(pts))
	for i := range out {
		out[i] /= n
	}
}

func refVariance(pts [][]float64, mean, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for _, p := range pts {
		for i, v := range p {
			d := v - mean[i]
			out[i] += d * d
		}
	}
	n := float64(len(pts))
	for i := range out {
		out[i] /= n
	}
}

func refMaxVarianceDim(pts [][]float64) int {
	dim := len(pts[0])
	mean := make([]float64, dim)
	variance := make([]float64, dim)
	refMean(pts, mean)
	refVariance(pts, mean, variance)
	best := 0
	for i := 1; i < dim; i++ {
		if variance[i] > variance[best] {
			best = i
		}
	}
	return best
}

func refMinMax(pts [][]float64) (lo, hi []float64) {
	lo = Clone(pts[0])
	hi = Clone(pts[0])
	for _, p := range pts[1:] {
		for i, v := range p {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	return lo, hi
}

// forEachLaneWidth runs f with simdLanes forced to every width the CPU
// can execute: the scalar loops, AVX2 and, where supported, AVX-512.
func forEachLaneWidth(t testing.TB, f func(lanes int)) {
	t.Helper()
	detected := simdLanes
	defer func() { simdLanes = detected }()
	for _, lanes := range []int{0, 4, 8} {
		if lanes > Lanes() {
			continue // CPU can't run this kernel
		}
		simdLanes = lanes
		f(lanes)
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns,
// counting any two NaNs as equal (IEEE leaves the payload of a NaN
// result from two NaN operands to the operand order, which the kernels
// and the compiled scalar loop need not share).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// hardValue draws a coordinate that stresses the kernels: signed
// zeros, magnitudes from 1e-150 to 1e150 of either sign, and repeats
// of a small set of values so ties and exact cancellations occur.
func hardValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(rng.Intn(5) - 2)
	default:
		v := math.Pow(10, rng.Float64()*300-150)
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
}

func hardPoints(rng *rand.Rand, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = hardValue(rng)
		}
	}
	return pts
}

// checkStats compares every kernel-backed statistic against the
// scalar reference on pts, at the current lane width.
func checkStats(t testing.TB, pts [][]float64, label string) {
	t.Helper()
	dim := len(pts[0])
	wantMean := make([]float64, dim)
	gotMean := make([]float64, dim)
	refMean(pts, wantMean)
	Mean(pts, gotMean)
	if !sameBits(gotMean, wantMean) {
		t.Fatalf("%s: Mean %v != scalar %v", label, gotMean, wantMean)
	}
	wantVar := make([]float64, dim)
	gotVar := make([]float64, dim)
	refVariance(pts, wantMean, wantVar)
	Variance(pts, wantMean, gotVar)
	if !sameBits(gotVar, wantVar) {
		t.Fatalf("%s: Variance %v != scalar %v", label, gotVar, wantVar)
	}
	if got, want := MaxVarianceDim(pts), refMaxVarianceDim(pts); got != want {
		t.Fatalf("%s: MaxVarianceDim %d != scalar %d", label, got, want)
	}
	lo, hi := MinMax(pts)
	wantLo, wantHi := refMinMax(pts)
	if !sameBits(lo, wantLo) || !sameBits(hi, wantHi) {
		t.Fatalf("%s: MinMax [%v, %v] != scalar [%v, %v]", label, lo, hi, wantLo, wantHi)
	}
}

// Every dimensionality from 1 to 70 (so every tail length of both
// vector widths, with and without full vectors in front of it) and row
// counts from 1 to 300, over signed zeros and magnitudes from 1e-150
// to 1e150, at every lane width the CPU runs.
func TestStatsKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var cases [][][]float64
	for dim := 1; dim <= 70; dim++ {
		for _, n := range []int{1, 2, 3, 5, 8, 9, 17, 64, 300} {
			cases = append(cases, hardPoints(rng, n, dim))
		}
	}
	forEachLaneWidth(t, func(lanes int) {
		for _, pts := range cases {
			checkStats(t, pts, fmt.Sprintf("lanes=%d dim=%d n=%d", lanes, len(pts[0]), len(pts)))
		}
	})
}

// Signed zeros meet in every order: the bound must keep whichever zero
// it holds, exactly as "v < lo" / "v > hi" do, and a sum of zeros must
// keep its scalar sign.
func TestStatsKernelsSignedZeros(t *testing.T) {
	pz, nz := 0.0, math.Copysign(0, -1)
	for _, dim := range []int{1, 3, 4, 5, 8, 9, 60} {
		for _, order := range [][]float64{{pz, nz}, {nz, pz}, {nz, nz, pz}, {pz, pz, nz}, {nz}} {
			pts := make([][]float64, len(order))
			for i, v := range order {
				pts[i] = make([]float64, dim)
				for j := range pts[i] {
					pts[i][j] = v
				}
			}
			forEachLaneWidth(t, func(lanes int) {
				checkStats(t, pts, fmt.Sprintf("lanes=%d dim=%d order=%v", lanes, dim, order))
			})
		}
	}
}

// Columns that are exact copies of each other have exactly equal
// variances; the winner must be the lowest such dimension at every
// width, wherever the copies sit relative to the vector boundaries.
func TestMaxVarianceDimExactTies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{2, 5, 8, 9, 13, 60, 70} {
		for _, n := range []int{2, 7, 300} {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = make([]float64, dim)
				for j := range pts[i] {
					pts[i][j] = rng.Float64() // variance below that of the tied columns
				}
			}
			// The widest column, copied into a later dimension and into
			// the last one.
			first := rng.Intn(dim - 1)
			for i := range pts {
				v := rng.Float64()*100 - 50
				pts[i][first] = v
				pts[i][dim-1] = v
				pts[i][first+(dim-1-first)/2] = v
			}
			forEachLaneWidth(t, func(lanes int) {
				if got := MaxVarianceDim(pts); got != first {
					t.Fatalf("lanes=%d dim=%d n=%d: tie resolved to %d, want %d", lanes, dim, n, got, first)
				}
				checkStats(t, pts, fmt.Sprintf("lanes=%d dim=%d n=%d", lanes, dim, n))
			})
		}
	}
}

// Rows whose length differs from the accumulator's take the scalar
// loop, so the kernels never read past a short row and the scalar
// panics for long rows are kept.
func TestStatsKernelsRaggedRowsKeepScalarBehaviour(t *testing.T) {
	forEachLaneWidth(t, func(lanes int) {
		short := [][]float64{{1, 2, 3, 4, 5}, {1, 2}}
		out := make([]float64, 5)
		Mean(short, out)
		want := []float64{1, 2, 1.5, 2, 2.5}
		if !sameBits(out, want) {
			t.Fatalf("lanes=%d: Mean of ragged rows %v, want %v", lanes, out, want)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("lanes=%d: Mean with a row longer than out did not panic", lanes)
				}
			}()
			Mean([][]float64{{1}, {1, 2}}, make([]float64, 1))
		}()
	})
}

// The kernels only read: the rows are left exactly as they were.
func TestStatsKernelsLeaveRowsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := hardPoints(rng, 50, 61)
	orig := ClonePoints(pts)
	forEachLaneWidth(t, func(lanes int) {
		MaxVarianceDim(pts)
		MinMax(pts)
		for i := range pts {
			if !sameBits(pts[i], orig[i]) {
				t.Fatalf("lanes=%d: row %d changed", lanes, i)
			}
		}
	})
}

// splitStatsPoints is one lower-tree area of the predict workload in
// size: ~7k rows of 60 dimensions.
func splitStatsPoints() [][]float64 {
	rng := rand.New(rand.NewSource(60))
	pts := make([][]float64, 7000)
	flat := make([]float64, len(pts)*60)
	for i := range pts {
		pts[i] = flat[i*60 : (i+1)*60]
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	return pts
}

func benchSplitStats(b *testing.B, lanes int) {
	pts := splitStatsPoints()
	detected := simdLanes
	defer func() { simdLanes = detected }()
	simdLanes = lanes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dimSink = MaxVarianceDim(pts)
	}
}

// dimSink and boundSink keep the benchmarked calls' results alive.
var (
	dimSink   int
	boundSink []float64
)

func benchBound(b *testing.B, lanes int) {
	pts := splitStatsPoints()
	detected := simdLanes
	defer func() { simdLanes = detected }()
	simdLanes = lanes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boundSink, _ = MinMax(pts)
	}
}

// BenchmarkKernelSplitStats60 is one VAMSplit split decision (mean and
// variance pass) over a lower-tree-area-sized point set at the CPU's
// vector width; Ref60 runs the scalar loops on the same input.
func BenchmarkKernelSplitStats60(b *testing.B)    { benchSplitStats(b, Lanes()) }
func BenchmarkKernelSplitStatsRef60(b *testing.B) { benchSplitStats(b, 0) }

// BenchmarkKernelBound60 is one leaf bounding box (mbr.Bound runs
// MinMax) over the same point set; Ref60 is the scalar loop.
func BenchmarkKernelBound60(b *testing.B)    { benchBound(b, Lanes()) }
func BenchmarkKernelBoundRef60(b *testing.B) { benchBound(b, 0) }
