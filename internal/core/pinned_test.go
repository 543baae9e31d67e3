package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hdidx/internal/dataset"
	"hdidx/internal/disk"
	"hdidx/internal/rtree"
)

// pinnedCase is one configuration of TestPredictResampledPinned.
type pinnedCase struct {
	name   string
	hUpper int // 2 leaves few upper leaves: sigma_lower < 1
	m      int // memory in points
	buffer int // buffer-pool pages; 0 is an unbuffered disk
	want   string
}

// The resampled predictor decodes both scans into reused buffers and
// the area read-back into recycled ones. None of that may change a
// bit of the answer, so these cases pin the per-query counts, the
// lower-tree leaf rectangles and every I/O counter to digests taken
// before the buffers were reused. sigma_lower < 1 runs the in-place
// Bernoulli compaction of each reused chunk; sigma_lower = 1 keeps
// every row of it.
var pinnedCases = []pinnedCase{
	{name: "unbuffered/sigma<1", hUpper: 2, m: 1000, want: "569ae156abfd20c9"},
	{name: "buffered/sigma<1", hUpper: 2, m: 1000, buffer: 16, want: "cc050eabb1843a09"},
	{name: "unbuffered/sigma=1", m: 1200, want: "1b7aba3bb1ecaaf4"},
	{name: "buffered/sigma=1", m: 1200, buffer: 16, want: "908f178386cc9cde"},
}

// pinnedInput is the dataset and query sample every pinned case runs.
func pinnedInput() ([][]float64, []int) {
	rng := rand.New(rand.NewSource(41))
	pts := dataset.Texture60.Scaled(0.03).Generate(rng).Points
	indices := make([]int, 30)
	for i := range indices {
		indices[i] = rng.Intn(len(pts))
	}
	return pts, indices
}

func runPinned(t testing.TB, c pinnedCase, pts [][]float64, indices []int, workers int) Prediction {
	d := disk.NewBuffered(disk.DefaultParams(), disk.BufferConfig{Pages: c.buffer})
	pf := disk.NewPointFile(d, len(pts[0]), len(pts))
	pf.AppendAll(pts)
	d.FlushBuffers()
	d.ResetCounters()
	p, err := PredictResampled(pf, Config{
		Geometry:     rtree.NewGeometry(len(pts[0])),
		M:            c.m,
		K:            21,
		HUpper:       c.hUpper,
		QueryIndices: indices,
		Rng:          rand.New(rand.NewSource(42)),
		Workers:      workers,
	})
	if err != nil {
		t.Errorf("%s: %v", c.name, err) // not Fatal: concurrent callers run off the test goroutine
	}
	return p
}

// predictionDigest hashes the bits of everything a prediction reports
// that the disk and the data path could disturb.
func predictionDigest(p Prediction) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(p.PerQuery)))
	for _, v := range p.PerQuery {
		put(math.Float64bits(v))
	}
	put(uint64(len(p.LeafRects)))
	for _, r := range p.LeafRects {
		for i := range r.Lo {
			put(math.Float64bits(r.Lo[i]))
			put(math.Float64bits(r.Hi[i]))
		}
	}
	io := p.IO
	for _, v := range []int64{io.Seeks, io.Transfers, io.Hits, io.Misses, io.Evictions} {
		put(uint64(v))
	}
	put(math.Float64bits(p.IOSeconds))
	put(math.Float64bits(p.SigmaLower))
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestPredictResampledPinned(t *testing.T) {
	pts, indices := pinnedInput()
	for _, c := range pinnedCases {
		t.Run(c.name, func(t *testing.T) {
			p := runPinned(t, c, pts, indices, 2)
			if c.hUpper == 2 && p.SigmaLower >= 1 {
				t.Fatalf("sigma_lower = %v: the resample scan does not subsample", p.SigmaLower)
			}
			if c.hUpper == 0 && p.SigmaLower != 1 {
				t.Fatalf("sigma_lower = %v, want 1", p.SigmaLower)
			}
			if got := predictionDigest(p); got != c.want {
				t.Errorf("digest %s, pinned %s (IO %+v, %d leaves, mean %v)",
					got, c.want, p.IO, len(p.LeafRects), p.Mean)
			}
		})
	}
}

// Two predictions running at once share no buffers: each scan owns its
// chunk buffer, each call its area buffers. Run under -race, this also
// checks that the forked lower builds hand their buffers back without
// racing the next area's decode.
func TestPredictResampledConcurrentCalls(t *testing.T) {
	pts, indices := pinnedInput()
	want := make([]Prediction, len(pinnedCases))
	for i, c := range pinnedCases {
		want[i] = runPinned(t, c, pts, indices, 2)
	}
	var wg sync.WaitGroup
	got := make([]Prediction, 2*len(pinnedCases))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = runPinned(t, pinnedCases[i%len(pinnedCases)], pts, indices, 2)
		}(i)
	}
	wg.Wait()
	for i, p := range got {
		w := want[i%len(pinnedCases)]
		if !reflect.DeepEqual(p.PerQuery, w.PerQuery) || !reflect.DeepEqual(p.LeafRects, w.LeafRects) || p.IO != w.IO {
			t.Errorf("%s: a concurrent call differs from the sequential one", pinnedCases[i%len(pinnedCases)].name)
		}
	}
}
