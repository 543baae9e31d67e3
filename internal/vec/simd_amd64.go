package vec

// detectedLanes is the vector width the CPU supports, probed once.
var detectedLanes = detectLanes()

func detectLanes() int {
	ecx := cpuid1ecx()
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return 0
	}
	xcr0 := xgetbv0()
	// The OS must save/restore XMM and YMM state.
	if xcr0&6 != 6 {
		return 0
	}
	ebx := cpuid7ebx()
	const avx2, avx512f = 1 << 5, 1 << 16
	if ebx&avx2 == 0 {
		return 0
	}
	// AVX-512 additionally needs opmask and ZMM state enabled.
	if ebx&avx512f != 0 && xcr0&0xe6 == 0xe6 {
		return 8
	}
	return 4
}

// cpuid1ecx returns ECX of CPUID leaf 1 (feature bits: OSXSAVE, AVX).
func cpuid1ecx() uint32

// cpuid7ebx returns EBX of CPUID leaf 7, subleaf 0 (AVX2, AVX-512F).
func cpuid7ebx() uint32

// xgetbv0 returns XCR0 (which register states the OS saves).
func xgetbv0() uint64

// tailMasks4 holds the AVX2 lane masks for a dimension tail: the four
// entries from &tailMasks4[4-r] enable exactly the first r lanes.
var tailMasks4 = [8]int64{-1, -1, -1, -1, 0, 0, 0, 0}

// The kernels walk n row headers from rows, each row holding dim
// float64 values. The four-lane (AVX2) variants take the tail mask of
// dim%4 lanes; the eight-lane (AVX-512F) variants build theirs.

// addRows4 and addRows8 add each row into acc: acc[j] += row[j].
//
//go:noescape
func addRows4(rows *[]float64, n, dim int, acc *float64, mask *int64)

//go:noescape
func addRows8(rows *[]float64, n, dim int, acc *float64)

// sqDevRows4 and sqDevRows8 add each row's squared deviations from
// mean into acc: d := row[j] - mean[j]; acc[j] += d*d.
//
//go:noescape
func sqDevRows4(rows *[]float64, n, dim int, mean, acc *float64, mask *int64)

//go:noescape
func sqDevRows8(rows *[]float64, n, dim int, mean, acc *float64)

// minMaxRows4 and minMaxRows8 lower lo and raise hi to each row:
// lo[j] = row[j] if row[j] < lo[j]; hi[j] = row[j] if row[j] > hi[j].
//
//go:noescape
func minMaxRows4(rows *[]float64, n, dim int, lo, hi *float64, mask *int64)

//go:noescape
func minMaxRows8(rows *[]float64, n, dim int, lo, hi *float64)

// addRowsSIMD runs addRows over pts into acc and reports true, or
// reports false without touching acc when the scalar loop must run.
func addRowsSIMD(pts [][]float64, acc []float64) bool {
	dim := len(acc)
	if simdLanes == 0 || dim == 0 || len(pts) == 0 || !uniformRows(pts, dim) {
		return false
	}
	if simdLanes == 8 {
		addRows8(&pts[0], len(pts), dim, &acc[0])
	} else {
		addRows4(&pts[0], len(pts), dim, &acc[0], &tailMasks4[4-dim%4])
	}
	return true
}

// sqDevRowsSIMD is addRowsSIMD for the squared deviations from mean.
func sqDevRowsSIMD(pts [][]float64, mean, acc []float64) bool {
	dim := len(acc)
	if simdLanes == 0 || dim == 0 || len(pts) == 0 || len(mean) != dim || !uniformRows(pts, dim) {
		return false
	}
	if simdLanes == 8 {
		sqDevRows8(&pts[0], len(pts), dim, &mean[0], &acc[0])
	} else {
		sqDevRows4(&pts[0], len(pts), dim, &mean[0], &acc[0], &tailMasks4[4-dim%4])
	}
	return true
}

// minMaxRowsSIMD is addRowsSIMD for the running minimum and maximum.
func minMaxRowsSIMD(pts [][]float64, lo, hi []float64) bool {
	dim := len(lo)
	if simdLanes == 0 || dim == 0 || len(pts) == 0 || len(hi) != dim || !uniformRows(pts, dim) {
		return false
	}
	if simdLanes == 8 {
		minMaxRows8(&pts[0], len(pts), dim, &lo[0], &hi[0])
	} else {
		minMaxRows4(&pts[0], len(pts), dim, &lo[0], &hi[0], &tailMasks4[4-dim%4])
	}
	return true
}
