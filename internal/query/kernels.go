package query

import (
	"fmt"
	"math"
	"sync"

	"hdidx/internal/par"
	"hdidx/internal/vec"
)

// This file holds the flat scan kernels behind ComputeSpheres and the
// SphereScanner. They iterate a row-major vec.Matrix instead of a
// [][]float64 (one contiguous array, no pointer per row) and prune
// candidate rows with a partial-distance early exit against the
// current k-th-best bound. The results are bit-identical to the
// slice-based KNNBruteRadius reference, which the kernel tests assert.
// Two facts make that possible:
//
//   - Each row's squared-distance terms accumulate in ascending
//     dimension order, exactly like sqDist. The kernel interleaves
//     rows and splits dimensions into chunks, but never reassociates
//     terms within a row, so every distance value is unchanged.
//   - The k-NN radius is an order statistic of the per-row distance
//     multiset, so rows may be visited in any order and a row may be
//     dropped as soon as its partial sum alone exceeds the bound —
//     the bounded max-heap would reject its full distance anyway.
//
// The scan is batched and column-chunked: rows are processed in
// batches, each batch accumulates dimChunk dimensions at a time for
// all still-live rows, and rows whose partial sum exceeds the bound
// are compacted away between chunks. All accumulation runs through an
// eight-row kernel with one independent accumulator per row; the
// single-accumulator reference loop is latency-bound on its s += d*d
// dependency chain, while eight independent chains run at
// floating-point throughput. Compaction gives the early exit per-row
// granularity without breaking the eight-wide interleave, and the
// bound refreshes from the heap between batches.

// rowBlock is the number of rows accumulated concurrently; eight
// accumulators fit the FP register file with room for the operands.
const rowBlock = 8

// dimChunk is how many dimensions accumulate between partial-distance
// prune points, in both the batched and the single-row kernels.
const dimChunk = 8

// scanBatch is the number of rows per pruning batch. Within a batch
// the bound is fixed (taken from the heap at batch start); survivors
// are offered at batch end, tightening the bound for the next batch.
const scanBatch = 512

// sqDistBounded accumulates the squared distance between row and q in
// blocks of dimChunk dimensions, giving up as soon as the partial sum
// exceeds bound. ok reports whether the full distance was computed
// and is at most bound (bound is +Inf while the caller's heap is not
// yet full, so every distance completes). The per-term accumulation
// order matches sqDist exactly, keeping results bit-identical.
func sqDistBounded(row, q []float64, bound float64) (dist float64, ok bool) {
	var s float64
	j := 0
	for ; j+dimChunk <= len(q); j += dimChunk {
		for jj := j; jj < j+dimChunk; jj++ {
			d := row[jj] - q[jj]
			s += d * d
		}
		if s > bound {
			return s, false
		}
	}
	for ; j < len(q); j++ {
		d := row[j] - q[j]
		s += d * d
	}
	return s, s <= bound
}

// scanScratch is the pooled per-worker state of the batched scan: the
// partial sums and dataset-row indices of the live rows of the
// current batch.
type scanScratch struct {
	part []float64
	idx  []int32
}

var scratchPool = sync.Pool{New: func() interface{} {
	return &scanScratch{
		part: make([]float64, scanBatch),
		idx:  make([]int32, scanBatch),
	}
}}

// scanKNNFlat offers the squared distance from q to every row of the
// flat matrix data (stride dim) to h, skipping rows that the partial-
// distance early exit proves the heap would reject. The heap may carry
// state from earlier chunks of the same dataset (SphereScanner).
func scanKNNFlat(data []float64, dim int, q []float64, h *boundedMaxHeap) {
	if len(q) != dim {
		panic(fmt.Sprintf("query: query dimension %d != dataset dimension %d", len(q), dim))
	}
	n := len(data) / dim
	sc := scratchPool.Get().(*scanScratch)
	part, idx := sc.part, sc.idx

	for b0 := 0; b0 < n; b0 += scanBatch {
		bn := n - b0
		if bn > scanBatch {
			bn = scanBatch
		}
		bound := h.max()
		live := bn
		for i := 0; i < bn; i++ {
			idx[i] = int32(b0 + i)
			part[i] = 0
		}
		prune := !math.IsInf(bound, 1)
		for c := 0; c < dim; c += dimChunk {
			ce := c + dimChunk
			if ce > dim {
				ce = dim
			}
			accumulateChunk(data, dim, q, c, ce, idx[:live], part[:live])
			if prune && ce < dim {
				w := 0
				for i := 0; i < live; i++ {
					if part[i] <= bound {
						idx[w], part[w] = idx[i], part[i]
						w++
					}
				}
				live = w
			}
		}
		// The heap rejects values above the current k-th best in
		// O(1), so the surviving distances are offered directly.
		for i := 0; i < live; i++ {
			h.offer(part[i])
		}
	}
	scratchPool.Put(sc)
}

// accumulateChunk adds the squared-distance contribution of
// dimensions [c, ce) to the partial sum of every live row. Full
// dimChunk-sized chunks run the eight-row kernel: fixed-size array
// views give the inner loop constant bounds (no per-element bounds
// checks) and eight independent accumulator chains.
func accumulateChunk(data []float64, dim int, q []float64, c, ce int, idx []int32, part []float64) {
	if ce-c != dimChunk {
		// Tail chunk of dim%dimChunk dimensions.
		for i, row := range idx {
			base := int(row) * dim
			s := part[i]
			for j := c; j < ce; j++ {
				d := data[base+j] - q[j]
				s += d * d
			}
			part[i] = s
		}
		return
	}
	qs := (*[dimChunk]float64)(q[c:])
	i := 0
	for ; i+rowBlock <= len(idx); i += rowBlock {
		p0 := (*[dimChunk]float64)(data[int(idx[i])*dim+c:])
		p1 := (*[dimChunk]float64)(data[int(idx[i+1])*dim+c:])
		p2 := (*[dimChunk]float64)(data[int(idx[i+2])*dim+c:])
		p3 := (*[dimChunk]float64)(data[int(idx[i+3])*dim+c:])
		p4 := (*[dimChunk]float64)(data[int(idx[i+4])*dim+c:])
		p5 := (*[dimChunk]float64)(data[int(idx[i+5])*dim+c:])
		p6 := (*[dimChunk]float64)(data[int(idx[i+6])*dim+c:])
		p7 := (*[dimChunk]float64)(data[int(idx[i+7])*dim+c:])
		a0, a1, a2, a3 := part[i], part[i+1], part[i+2], part[i+3]
		a4, a5, a6, a7 := part[i+4], part[i+5], part[i+6], part[i+7]
		for jj := 0; jj < dimChunk; jj++ {
			qj := qs[jj]
			d0 := p0[jj] - qj
			a0 += d0 * d0
			d1 := p1[jj] - qj
			a1 += d1 * d1
			d2 := p2[jj] - qj
			a2 += d2 * d2
			d3 := p3[jj] - qj
			a3 += d3 * d3
			d4 := p4[jj] - qj
			a4 += d4 * d4
			d5 := p5[jj] - qj
			a5 += d5 * d5
			d6 := p6[jj] - qj
			a6 += d6 * d6
			d7 := p7[jj] - qj
			a7 += d7 * d7
		}
		part[i], part[i+1], part[i+2], part[i+3] = a0, a1, a2, a3
		part[i+4], part[i+5], part[i+6], part[i+7] = a4, a5, a6, a7
	}
	for ; i < len(idx); i++ {
		row := (*[dimChunk]float64)(data[int(idx[i])*dim+c:])
		s := part[i]
		for jj := 0; jj < dimChunk; jj++ {
			d := row[jj] - qs[jj]
			s += d * d
		}
		part[i] = s
	}
}

// cacheBlockBytes is the target size of one row batch of the
// query-blocked scan; batches this size stay cache-resident while
// every query of a worker's chunk visits them.
const cacheBlockBytes = 256 << 10

// computeSpheresFlat is the kernel behind ComputeSpheres: fresh heaps
// advanced over the whole dataset by the sphere-scan core. The fan-out
// over queries is bounded by pool (the zero pool follows the process
// default).
func computeSpheresFlat(data, queryPoints [][]float64, k int, pool par.Pool) []Sphere {
	if k <= 0 || k > len(data) {
		panic(fmt.Sprintf("query: k = %d outside [1, %d]", k, len(data)))
	}
	heaps := newHeaps(len(queryPoints), k)
	advanceSpheres(data, queryPoints, heaps, pool)
	return spheresOf(queryPoints, heaps)
}

// newHeaps returns n empty bounded max-heaps of capacity k sharing one
// backing array.
func newHeaps(n, k int) []*boundedMaxHeap {
	hs := make([]boundedMaxHeap, n)
	vals := make([]float64, n*k)
	heaps := make([]*boundedMaxHeap, n)
	for i := range hs {
		hs[i] = boundedMaxHeap{k: k, vals: vals[i*k : i*k : (i+1)*k]}
		heaps[i] = &hs[i]
	}
	return heaps
}

// spheresOf turns the full heaps of a finished scan into k-NN spheres.
func spheresOf(queryPoints [][]float64, heaps []*boundedMaxHeap) []Sphere {
	spheres := make([]Sphere, len(queryPoints))
	for i, h := range heaps {
		spheres[i] = Sphere{Center: queryPoints[i], Radius: math.Sqrt(h.max())}
	}
	return spheres
}

// advanceSpheres is the one sphere-scan core behind ComputeSpheres and
// the SphereScanner: it offers the squared distance from
// queryPoints[i] to every row of rows to heaps[i]. The heaps may carry
// state from earlier rows of the same dataset, so a dataset streamed
// in chunks gives the same radii as one scan. When the CPU supports
// it, the packed SIMD scan runs (kernels_avx2_amd64.go); otherwise, or
// for a chunk smaller than one lane group, the scalar query-blocked
// scan below does. Both are bit-identical to the reference.
func advanceSpheres(rows, queryPoints [][]float64, heaps []*boundedMaxHeap, pool par.Pool) {
	if len(rows) == 0 {
		return
	}
	dim := len(rows[0])
	for _, q := range queryPoints {
		if len(q) != dim {
			panic(fmt.Sprintf("query: query dimension %d != dataset dimension %d", len(q), dim))
		}
	}
	if advanceSpheresSIMD(rows, dim, queryPoints, heaps, pool) {
		return
	}
	advanceSpheresScalar(rows, queryPoints, heaps, pool)
}

// matrixPool recycles the flattened rows of the scalar scan.
var matrixPool = sync.Pool{New: func() interface{} { return &vec.Matrix{} }}

// advanceSpheresScalar is the portable query-blocked flat scan. The
// rows are flattened once and walked in cache-resident batches, and
// every query of the worker's chunk scans the batch (carrying its heap
// across batches) before the next batch is touched — so the rows
// stream from memory once per worker instead of once per query. Per
// query the rows still arrive in ascending order with the same
// carried bound, so the radii are bit-identical to independent full
// scans.
func advanceSpheresScalar(rows, queryPoints [][]float64, heaps []*boundedMaxHeap, pool par.Pool) {
	m := matrixPool.Get().(*vec.Matrix)
	*m = vec.Matrix{Data: m.Data[:0]} // keep the array, adopt these rows' dim
	m.AppendRows(rows)
	dim := m.Dim
	batchRows := cacheBlockBytes / (dim * 8)
	if batchRows < scanBatch {
		batchRows = scanBatch
	}
	n := m.Len()
	pool.Chunks(len(queryPoints), func(lo, hi int) {
		for b0 := 0; b0 < n; b0 += batchRows {
			be := b0 + batchRows
			if be > n {
				be = n
			}
			seg := m.Data[b0*dim : be*dim]
			for i := lo; i < hi; i++ {
				scanKNNFlat(seg, dim, queryPoints[i], heaps[i])
			}
		}
	})
	matrixPool.Put(m)
}
