package query

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hdidx/internal/dataset"
)

// The lane-width detection picks one kernel per machine, so the other
// paths (the narrower vector kernel on AVX-512 hardware, the scalar
// fallback everywhere) would otherwise go untested. Force each width
// through the oracle comparison.
func TestComputeSpheresAllLaneWidths(t *testing.T) {
	detected := simdLanes
	defer func() { simdLanes = detected }()
	for _, lanes := range []int{0, 4, 8} {
		if lanes > detected {
			continue // CPU can't run this kernel
		}
		simdLanes = lanes
		for _, dim := range []int{1, 7, 16, 60} {
			data := uniformPoints(700, dim, int64(dim))
			queries := uniformPoints(25, dim, int64(dim)+300)
			for _, k := range []int{1, 21, 700} {
				got := ComputeSpheres(data, queries, k)
				want := refComputeSpheres(data, queries, k)
				for i := range want {
					if got[i].Radius != want[i].Radius {
						t.Fatalf("lanes=%d dim=%d k=%d query %d: radius %v != oracle %v",
							lanes, dim, k, i, got[i].Radius, want[i].Radius)
					}
				}
			}
		}
	}
}

// Dataset sizes around the group and batch boundaries of the packed
// scan: lane-count multiples plus/minus one (tail rows), exactly one
// batch, one batch plus one group.
func TestComputeSpheresPackedBoundaries(t *testing.T) {
	if simdLanes == 0 {
		t.Skip("no vector kernel on this CPU")
	}
	l := simdLanes
	sizes := []int{l, l + 1, 2*l - 1, scanBatch, scanBatch + l, scanBatch + l + 1}
	for _, n := range sizes {
		data := uniformPoints(n, 16, int64(n))
		queries := uniformPoints(10, 16, int64(n)+1000)
		got := ComputeSpheres(data, queries, minInt(21, n))
		want := refComputeSpheres(data, queries, minInt(21, n))
		for i := range want {
			if got[i].Radius != want[i].Radius {
				t.Fatalf("n=%d query %d: radius %v != oracle %v", n, i, got[i].Radius, want[i].Radius)
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// forEachLaneWidth runs f with simdLanes forced to every width the
// CPU can execute: the scalar fallback, AVX2 and, where supported,
// AVX-512.
func forEachLaneWidth(t *testing.T, f func(t *testing.T, lanes int)) {
	detected := simdLanes
	defer func() { simdLanes = detected }()
	for _, lanes := range []int{0, 4, 8} {
		if lanes > detected {
			continue // CPU can't run this kernel
		}
		simdLanes = lanes
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) { f(t, lanes) })
	}
}

// The SphereScanner advances its carried heaps with the same kernel as
// ComputeSpheres. Streamed in chunks of every awkward size — below the
// lane count (the scalar fallback runs mid-stream), exactly one batch,
// one batch plus a group plus one row — it must match the oracle
// bitwise at every lane width.
func TestSphereScannerAllLaneWidths(t *testing.T) {
	forEachLaneWidth(t, func(t *testing.T, lanes int) {
		w := lanes
		if w == 0 {
			w = 4
		}
		patterns := [][]int{
			{1},
			{w - 1},
			{scanBatch},
			{scanBatch + w + 1},
			{1, w - 1, scanBatch, w + 1, scanBatch + w + 1, 2},
		}
		for _, dim := range []int{1, 7, 16, 60} {
			data := uniformPoints(1500, dim, int64(dim)+7)
			queries := uniformPoints(25, dim, int64(dim)+700)
			for _, k := range []int{1, 21, 1500} {
				want := refComputeSpheres(data, queries, k)
				for _, pat := range patterns {
					s := NewSphereScanner(queries, k)
					for off, i := 0, 0; off < len(data); i++ {
						c := pat[i%len(pat)]
						if off+c > len(data) {
							c = len(data) - off
						}
						s.Process(data[off : off+c])
						off += c
					}
					got := s.Spheres()
					for i := range want {
						if got[i].Radius != want[i].Radius {
							t.Fatalf("dim=%d k=%d chunks %v query %d: radius %v != oracle %v",
								dim, k, pat, i, got[i].Radius, want[i].Radius)
						}
					}
				}
			}
		}
	})
}

// Property: at every lane width, chunking never changes the scanner's
// radii, and one chunk matches ComputeSpheres bitwise.
func TestSphereScannerChunkingInvariantAllLaneWidths(t *testing.T) {
	forEachLaneWidth(t, func(t *testing.T, lanes int) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			n := 20 + r.Intn(2*scanBatch)
			dim := 1 + r.Intn(70)
			k := 1 + r.Intn(20)
			data := dataset.GenerateUniform("u", n, dim, r).Points
			queries := dataset.GenerateUniform("q", 1+r.Intn(12), dim, r).Points

			one := NewSphereScanner(queries, k)
			one.Process(data)
			many := NewSphereScanner(queries, k)
			for off := 0; off < n; {
				c := 1 + r.Intn(n-off)
				if r.Intn(2) == 0 && c > 2*lanes {
					c = 1 + r.Intn(lanes+1) // below or at the lane count
				}
				many.Process(data[off : off+c])
				off += c
			}
			a, b := one.Spheres(), many.Spheres()
			batch := ComputeSpheres(data, queries, k)
			for i := range a {
				if a[i].Radius != b[i].Radius || a[i].Radius != batch[i].Radius {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	})
}
