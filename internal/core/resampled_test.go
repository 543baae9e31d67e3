package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hdidx/internal/dataset"
	"hdidx/internal/disk"
	"hdidx/internal/rtree"
)

// TestPredictResampledWidthInvariant runs the resampled predictor at
// several pool widths and requires the same answer, bit for bit: the
// leaf layout, the per-query counts and every I/O counter. The lower
// trees are built concurrently while the areas are read back on the
// calling goroutine, so width may change only the wall clock. Each run
// gets a fresh disk, so every run starts from the same head position
// and buffer-pool state.
func TestPredictResampledWidthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	plain := dataset.Texture60.Scaled(0.03).Generate(rng).Points
	// A block of identical points makes the upper tree cut several
	// identical zero-volume leaves. Every resampled copy goes to the
	// first of them, so the others keep empty areas and take the
	// cutoff fallback.
	dup := make([][]float64, len(plain))
	copy(dup, plain)
	for i := 0; i < len(dup)/3; i++ {
		dup[i] = plain[0]
	}
	indices := make([]int, 30)
	for i := range indices {
		indices[i] = rng.Intn(len(plain))
	}

	// Height 2 leaves few, large upper leaves, so sigma_lower < 1 and
	// the resample scan draws from the RNG. The duplicate block needs
	// the automatic height, whose upper leaves are small enough to be
	// cut inside it.
	cases := []struct {
		name      string
		data      [][]float64
		hUpper    int
		buffer    int
		adaptive  bool
		discard   bool
		wantEmpty bool
	}{
		{name: "unbuffered", data: plain, hUpper: 2},
		{name: "buffered", data: plain, hUpper: 2, buffer: 16},
		{name: "adaptive", data: plain, hUpper: 2, adaptive: true},
		{name: "discard-empty-area", data: dup, discard: true, wantEmpty: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			empty := 0
			DebugResampled = func(format string, args ...interface{}) {
				if strings.Contains(format, "stored=%d") && args[1] == 0 {
					empty++
				}
			}
			defer func() { DebugResampled = nil }()

			run := func(workers int) Prediction {
				d := disk.NewBuffered(disk.DefaultParams(), disk.BufferConfig{Pages: c.buffer})
				pf := disk.NewPointFile(d, len(c.data[0]), len(c.data))
				pf.AppendAll(c.data)
				d.FlushBuffers()
				d.ResetCounters()
				p, err := PredictResampled(pf, Config{
					Geometry:             rtree.NewGeometry(len(c.data[0])),
					M:                    1000,
					K:                    21,
					HUpper:               c.hUpper,
					QueryIndices:         indices,
					Rng:                  rand.New(rand.NewSource(42)),
					Workers:              workers,
					AdaptiveCompensation: c.adaptive,
					DiscardOutside:       c.discard,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return p
			}

			want := run(1)
			if c.wantEmpty && empty == 0 {
				t.Fatal("layout left no area empty; the fallback did not run")
			}
			if c.hUpper == 2 && want.SigmaLower >= 1 {
				t.Fatalf("sigma_lower = %v: the resample scan does not subsample", want.SigmaLower)
			}
			for _, w := range []int{2, 4, 8} {
				got := run(w)
				if !reflect.DeepEqual(got.LeafRects, want.LeafRects) {
					t.Errorf("workers=%d: leaf layout differs from workers=1 (%d vs %d leaves)",
						w, len(got.LeafRects), len(want.LeafRects))
				}
				if !reflect.DeepEqual(got.PerQuery, want.PerQuery) || got.Mean != want.Mean {
					t.Errorf("workers=%d: per-query predictions differ from workers=1", w)
				}
				if got.IO != want.IO || got.IOSeconds != want.IOSeconds {
					t.Errorf("workers=%d: I/O %+v (%v s), workers=1 %+v (%v s)",
						w, got.IO, got.IOSeconds, want.IO, want.IOSeconds)
				}
			}
		})
	}
}
