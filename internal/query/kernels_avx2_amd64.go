package query

import (
	"fmt"
	"sync"

	"hdidx/internal/par"
	"hdidx/internal/vec"
)

// SIMD variant of the sphere scan. Rows are packed into lane-wide
// groups with their dimensions interleaved ([d0 of rows 0..L-1][d1 of
// rows 0..L-1]...), so one vector register holds the same dimension
// of L rows (L = 4 with AVX2, 8 with AVX-512). The assembly kernels
// (kernels_avx2_amd64.s) subtract the broadcast query coordinate,
// square, and accumulate — per lane the exact SUBSD/MULSD/ADDSD
// sequence of the scalar code in ascending dimension order, so every
// squared distance is bit-identical to sqDist. Dimensions are padded
// to a multiple of dimChunk with zeros; a padded term adds
// (0-0)^2 = +0.0 to a non-negative partial sum, which is exact.
//
// The partial-distance early exit lives in the kernel: after each
// dimChunk dimensions it compares the partial sums against the bound
// and abandons the group once every lane exceeds it. An abandoned
// group's partial sums are written out as they stand — all above the
// bound — so the caller's "offer only values <= bound" filter drops
// them without any bookkeeping, exactly like the completed distances
// the heap would reject.

// simdLanes is the vector width in float64 rows: 8 with AVX-512, 4
// with AVX2, 0 when the SIMD path is unavailable. The CPU probe lives
// in internal/vec; tests override this copy to run every width.
var simdLanes = vec.Lanes()

// scanGroups4 and scanGroups8 accumulate, for each of the n
// consecutive groups starting at group g0 of the packed matrix, the
// lanes' squared distances between the group's rows and the padded
// query q, writing them to part (one float64 per lane per group).
// Groups whose partial sums all exceed bound at a chunk boundary are
// abandoned; their written partials then all exceed bound. nchunks is
// dimPad/dimChunk.
//
//go:noescape
func scanGroups4(packed *float64, groupBytes uintptr, g0, n int, q *float64, nchunks int, bound float64, part *float64)

//go:noescape
func scanGroups8(packed *float64, groupBytes uintptr, g0, n int, q *float64, nchunks int, bound float64, part *float64)

// packedMatrix is a dataset repacked for the SIMD kernel: full
// lane-wide groups dimension-interleaved and zero-padded to dimPad,
// plus the leftover rows.
type packedMatrix struct {
	buf    []float64
	tail   [][]float64
	lanes  int
	dimPad int
	groups int
}

var packedPool = sync.Pool{New: func() interface{} { return &packedMatrix{} }}

func packMatrix(pts [][]float64, dim, lanes int) *packedMatrix {
	dimPad := (dim + dimChunk - 1) / dimChunk * dimChunk
	groups := len(pts) / lanes
	pm := packedPool.Get().(*packedMatrix)
	pm.lanes = lanes
	pm.dimPad = dimPad
	pm.groups = groups
	need := groups * lanes * dimPad
	if cap(pm.buf) < need {
		pm.buf = make([]float64, need)
	}
	pm.buf = pm.buf[:need]
	for g := 0; g < groups; g++ {
		dst := pm.buf[g*lanes*dimPad : (g+1)*lanes*dimPad]
		for l := 0; l < lanes; l++ {
			row := pts[g*lanes+l]
			if len(row) != dim {
				panic(fmt.Sprintf("query: row %d has dimension %d, want %d", g*lanes+l, len(row), dim))
			}
			for j := 0; j < dim; j++ {
				dst[j*lanes+l] = row[j]
			}
		}
		for j := dim * lanes; j < dimPad*lanes; j++ {
			dst[j] = 0
		}
	}
	pm.tail = pts[groups*lanes:]
	return pm
}

// simdScratch is the pooled per-worker state of the SIMD scan: the
// zero-padded query and the per-group distances of one batch.
type simdScratch struct {
	qpad []float64
	part []float64
}

var simdScratchPool = sync.Pool{New: func() interface{} { return &simdScratch{} }}

// advanceSpheresSIMD advances the heaps over rows with the packed SIMD
// scan; it reports false when the CPU lacks support or rows fill no
// lane group, leaving the work to the scalar path. The scan is
// query-blocked like the scalar path: every query of the worker's
// chunk visits a batch of scanBatch rows before the next batch is
// touched (the bound refreshing from the heap in between), so the rows
// stream from memory once per worker instead of once per query.
func advanceSpheresSIMD(rows [][]float64, dim int, queryPoints [][]float64, heaps []*boundedMaxHeap, pool par.Pool) bool {
	lanes := simdLanes
	if lanes == 0 || len(rows) < lanes {
		return false
	}
	scan := scanGroups4
	if lanes == 8 {
		scan = scanGroups8
	}
	pm := packMatrix(rows, dim, lanes)
	dimPad := pm.dimPad
	groupBytes := uintptr(lanes*dimPad) * 8
	nchunks := dimPad / dimChunk
	batchGroups := scanBatch / lanes
	pool.Chunks(len(queryPoints), func(lo, hi int) {
		sc := simdScratchPool.Get().(*simdScratch)
		if cap(sc.qpad) < dimPad {
			sc.qpad = make([]float64, dimPad)
		}
		if cap(sc.part) < scanBatch {
			sc.part = make([]float64, scanBatch)
		}
		qpad, part := sc.qpad[:dimPad], sc.part[:scanBatch]
		for b0 := 0; b0 < pm.groups; b0 += batchGroups {
			bn := pm.groups - b0
			if bn > batchGroups {
				bn = batchGroups
			}
			for qi := lo; qi < hi; qi++ {
				copy(qpad, queryPoints[qi])
				for j := dim; j < dimPad; j++ {
					qpad[j] = 0
				}
				h := heaps[qi]
				bound := h.max()
				scan(&pm.buf[0], groupBytes, b0, bn, &qpad[0], nchunks, bound, &part[0])
				// Distances above the bound — abandoned groups and
				// completed rows alike — are exactly the values the
				// heap would reject, so they are filtered here
				// without the call. Inserts tighten the filter.
				for _, v := range part[:bn*lanes] {
					if v <= bound {
						h.offer(v)
						bound = h.max()
					}
				}
			}
		}
		// Leftover rows (row count not divisible by the lane count)
		// run the scalar bounded scan once per query.
		for qi := lo; qi < hi; qi++ {
			h := heaps[qi]
			q := queryPoints[qi]
			bound := h.max()
			for _, row := range pm.tail {
				d, ok := sqDistBounded(row, q, bound)
				if !ok {
					continue
				}
				h.offer(d)
				bound = h.max()
			}
		}
		simdScratchPool.Put(sc)
	})
	packedPool.Put(pm)
	return true
}
