package dataset

import (
	"fmt"
	"math/rand"
)

// Sampling primitives. The predictors need two kinds of samples:
// a Bernoulli sample at a target rate (every point kept independently
// with probability rate, used when scanning the dataset once), and an
// exact-size uniform sample (used to fill memory with exactly M
// points).

// BernoulliSample keeps each point of pts independently with the given
// probability. The returned slice shares the point storage with pts.
func BernoulliSample(pts [][]float64, rate float64, rng *rand.Rand) [][]float64 {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("dataset: sampling rate %g outside [0,1]", rate))
	}
	if rate == 1 {
		out := make([][]float64, len(pts))
		copy(out, pts)
		return out
	}
	out := make([][]float64, 0, int(float64(len(pts))*rate)+16)
	for _, p := range pts {
		if rng.Float64() < rate {
			out = append(out, p)
		}
	}
	return out
}

// SampleExact returns exactly m points drawn uniformly without
// replacement from pts (all of them if m >= len(pts)). The returned
// slice shares point storage with pts; pts itself is not reordered.
func SampleExact(pts [][]float64, m int, rng *rand.Rand) [][]float64 {
	if m < 0 {
		panic("dataset: negative sample size")
	}
	n := len(pts)
	if m >= n {
		out := make([][]float64, n)
		copy(out, pts)
		return out
	}
	// Partial Fisher-Yates over an index permutation.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([][]float64, m)
	for i := 0; i < m; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = pts[idx[i]]
	}
	return out
}

// Reservoir maintains a uniform sample of fixed capacity over a stream
// of points (Vitter's Algorithm R). The predictors use it to draw the
// upper-tree sample during the single dataset scan.
//
// The reservoir copies every point it accepts into storage it owns, so
// a caller may offer rows from a buffer it reuses for the next chunk
// of the stream.
type Reservoir struct {
	cap  int
	seen int
	pts  [][]float64
	slab []float64 // unused tail of the current storage block
	rng  *rand.Rand
}

// reservoirSlabRows is how many rows of storage the reservoir
// allocates at a time while it fills.
const reservoirSlabRows = 4096

// NewReservoir returns a reservoir holding at most capacity points.
func NewReservoir(capacity int, rng *rand.Rand) *Reservoir {
	if capacity <= 0 {
		panic("dataset: reservoir capacity must be positive")
	}
	return &Reservoir{cap: capacity, rng: rng}
}

// Offer feeds one point of the stream to the reservoir. An accepted
// point is copied; p itself is not retained. Every point of a stream
// must have the same length.
func (r *Reservoir) Offer(p []float64) {
	r.seen++
	if len(r.pts) < r.cap {
		r.pts = append(r.pts, r.store(p))
		return
	}
	if j := r.rng.Intn(r.seen); j < r.cap {
		if len(r.pts[j]) != len(p) {
			panic(fmt.Sprintf("dataset: reservoir offered a %d-coordinate point after %d-coordinate ones", len(p), len(r.pts[j])))
		}
		copy(r.pts[j], p)
	}
}

// store copies p into the next free row of the reservoir's storage
// while the reservoir fills.
func (r *Reservoir) store(p []float64) []float64 {
	if len(r.slab) < len(p) {
		// Enough rows for the rest of the fill, which includes p.
		rows := min(r.cap-len(r.pts), reservoirSlabRows)
		r.slab = make([]float64, rows*len(p))
	}
	row := r.slab[:len(p):len(p)]
	r.slab = r.slab[len(p):]
	copy(row, p)
	return row
}

// Seen returns the number of points offered so far.
func (r *Reservoir) Seen() int { return r.seen }

// Sample returns the current sample. The slice and its rows are owned
// by the reservoir; callers must not retain them across further
// Offers.
func (r *Reservoir) Sample() [][]float64 { return r.pts }
