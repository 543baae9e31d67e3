package query

import "hdidx/internal/par"

// SphereScanner computes the k-NN radii of a fixed set of query points
// over a dataset that is streamed in chunks — the way the predictors
// of the paper determine their query spheres during the single dataset
// scan (Figure 5 step 3, Figure 7 step 3).
type SphereScanner struct {
	queryPoints [][]float64
	k           int
	heaps       []*boundedMaxHeap
	seen        int
	pool        par.Pool // fan-out bound; zero = process default
}

// NewSphereScanner prepares a scanner for the given query points and k.
func NewSphereScanner(queryPoints [][]float64, k int) *SphereScanner {
	if k <= 0 {
		panic("query: k must be positive")
	}
	return &SphereScanner{queryPoints: queryPoints, k: k, heaps: newHeaps(len(queryPoints), k)}
}

// UsePool bounds the scanner's per-chunk fan-out by pool instead of
// the process-wide worker pool and returns the scanner for chaining.
func (s *SphereScanner) UsePool(pool par.Pool) *SphereScanner {
	s.pool = pool
	return s
}

// Process feeds one chunk of the dataset to the scanner: every query
// advances its heap over the chunk with the sphere-scan core behind
// ComputeSpheres (the k-th-best bound carries over from earlier
// chunks). Queries are updated in parallel.
func (s *SphereScanner) Process(chunk [][]float64) {
	s.seen += len(chunk)
	advanceSpheres(chunk, s.queryPoints, s.heaps, s.pool)
}

// Spheres returns the k-NN spheres after the full dataset has been
// processed. It panics if fewer than k points were seen.
func (s *SphereScanner) Spheres() []Sphere {
	if s.seen < s.k {
		panic("query: scanner saw fewer points than k")
	}
	return spheresOf(s.queryPoints, s.heaps)
}
