package vec

// Vector kernels for the per-dimension statistics of a point set: the
// sums behind Mean and Variance and the running minimum and maximum
// behind MinMax (and so mbr.Bound). They serve the VAMSplit bulk
// loader, which computes one mean, one variance and one bounding box
// per split over thousands of rows.
//
// Vector lanes hold dimensions, not rows: one register carries
// dimensions j..j+L-1 of the accumulator, and the kernel adds row
// after row into it. Every dimension therefore still adds up its rows
// one at a time in row order, with the same IEEE operations as the
// scalar loop (VADDPD for out[i] += v; VSUBPD, VMULPD, VADDPD for
// d := v - mean[i]; out[i] += d*d — no fused multiply-add), so the
// results are bit-identical to the scalar code. The dimension tail
// that does not fill a register is loaded and stored under a lane
// mask, so no byte past a row or an accumulator is touched.
//
// The minimum and maximum use VMINPD/VMAXPD with the row value as the
// first source operand. Those instructions return the second source
// unless the first is strictly smaller (larger), which is exactly
// "if v < lo { lo = v }" ("if v > hi { hi = v }"): a -0 never
// replaces a +0 bound or the reverse, and a NaN row value never
// replaces a bound.
//
// The scalar loops stay as the path on CPUs without AVX2, on other
// architectures, and for ragged input (rows whose length differs from
// the accumulator's), and as the reference the tests compare against.

// simdLanes is the vector width, in float64 lanes, the kernels of this
// package run at: 8 with AVX-512, 4 with AVX2, 0 for the scalar loops.
// Tests lower it to run the narrower and scalar paths on any CPU.
var simdLanes = detectedLanes

// Lanes returns the widest float64 vector the CPU and operating system
// support for the kernels of this repository: 8 with AVX-512F, 4 with
// AVX2, 0 when only the scalar loops can run. It is probed once, at
// start-up.
func Lanes() int { return detectedLanes }

// uniformRows reports whether every row of pts has exactly dim
// coordinates, the shape the kernels require.
func uniformRows(pts [][]float64, dim int) bool {
	for _, p := range pts {
		if len(p) != dim {
			return false
		}
	}
	return true
}
