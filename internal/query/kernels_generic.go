//go:build !amd64

package query

import "hdidx/internal/par"

// advanceSpheresSIMD is a no-op on architectures without the vector
// kernels; the scalar query-blocked scan handles everything.
func advanceSpheresSIMD(rows [][]float64, dim int, queryPoints [][]float64, heaps []*boundedMaxHeap, pool par.Pool) bool {
	return false
}
