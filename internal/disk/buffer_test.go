package disk

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewBufferedValidation(t *testing.T) {
	for _, cfg := range []BufferConfig{{Pages: -1}, {Pages: 1, Prefetch: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cfg %+v: expected panic", cfg)
				}
			}()
			NewBuffered(DefaultParams(), cfg)
		}()
	}
	if d := NewBuffered(DefaultParams(), BufferConfig{}); d.BufferPages() != 0 {
		t.Errorf("zero config BufferPages = %d", d.BufferPages())
	}
	if d := NewBuffered(DefaultParams(), BufferConfig{Pages: 7}); d.BufferPages() != 7 {
		t.Errorf("BufferPages = %d, want 7", d.BufferPages())
	}
}

func TestZeroLengthAccessIsNoOp(t *testing.T) {
	for _, pages := range []int{0, 4} {
		d := NewBuffered(DefaultParams(), BufferConfig{Pages: pages})
		f := d.Alloc(8192 * 3)
		buf := make([]byte, 1)
		f.ReadAt(buf, 0) // head on page 0
		before := d.Counters()
		f.ReadAt(nil, 8192*2)          // far page, but zero bytes
		f.WriteAt([]byte{}, 8192*2+17) // likewise
		if got := d.Counters(); got != before {
			t.Errorf("pages=%d: zero-length access changed counters: %+v -> %+v", pages, before, got)
		}
		// The head did not move either: page 1 is still adjacent.
		f.ReadAt(buf, 8192)
		if got := d.Counters().Seeks - before.Seeks; got != 0 {
			t.Errorf("pages=%d: zero-length access moved the head (%d extra seeks)", pages, got)
		}
	}
}

func TestZeroLengthAccessStillBoundsChecked(t *testing.T) {
	d := New(DefaultParams())
	f := d.Alloc(100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-length read past EOF")
		}
	}()
	f.ReadAt(nil, 101)
}

func TestReadPastLogicalSizePanics(t *testing.T) {
	// The extent rounds 100 bytes up to a full page; reads must still be
	// rejected beyond the logical size, not the page capacity.
	d := New(DefaultParams())
	f := d.Alloc(100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reading slack bytes past EOF")
		}
	}()
	f.ReadAt(make([]byte, 50), 60)
}

func TestRepeatedReadsHitWithoutPhysicalIO(t *testing.T) {
	d := NewBuffered(DefaultParams(), BufferConfig{Pages: 4})
	f := d.Alloc(8192 * 4)
	f.TouchPages(0, 4)
	if c := d.Counters(); c.Misses != 4 || c.Transfers != 4 || c.Seeks != 1 {
		t.Fatalf("cold read counters = %+v", c)
	}
	d.ResetCounters()
	f.TouchPages(0, 4)
	c := d.Counters()
	if c.Hits != 4 || c.Misses != 0 {
		t.Errorf("re-read hits/misses = %d/%d, want 4/0", c.Hits, c.Misses)
	}
	if c.Seeks != 0 || c.Transfers != 0 {
		t.Errorf("re-read charged physical I/O: %+v", c)
	}
}

func TestWriteMissDefersTransferToWriteback(t *testing.T) {
	d := NewBuffered(DefaultParams(), BufferConfig{Pages: 2})
	f := d.Alloc(8192 * 4)
	page := make([]byte, 8192)
	f.WriteAt(page, 0)
	f.WriteAt(page, 8192)
	if c := d.Counters(); c.Misses != 2 || c.Transfers != 0 {
		t.Fatalf("write misses should defer transfers: %+v", c)
	}
	// The third write evicts the dirty page-0 frame; the clustered
	// write-back sweeps adjacent dirty page 1 out with it (one seek,
	// two sequential transfers), leaving page 1 resident and clean.
	f.WriteAt(page, 8192*2)
	if c := d.Counters(); c.Evictions != 1 || c.Writebacks != 2 || c.Transfers != 2 || c.Seeks != 1 {
		t.Fatalf("eviction counters = %+v", c)
	}
	// Flushing writes the one remaining dirty page.
	d.FlushBuffers()
	c := d.Counters()
	if c.Writebacks != 3 || c.Transfers != 3 {
		t.Errorf("after flush: %+v, want 3 writebacks / 3 transfers", c)
	}
	// A second flush owes nothing.
	d.FlushBuffers()
	if got := d.Counters(); got != c {
		t.Errorf("idempotent flush changed counters: %+v -> %+v", c, got)
	}
}

func TestDropBuffersColdStart(t *testing.T) {
	d := NewBuffered(DefaultParams(), BufferConfig{Pages: 4})
	f := d.Alloc(8192 * 2)
	f.WriteAt(make([]byte, 8192), 0)
	f.TouchPages(1, 1)
	d.DropBuffers()
	c := d.Counters()
	if c.Writebacks != 1 {
		t.Errorf("drop flushed %d pages, want 1", c.Writebacks)
	}
	d.ResetCounters()
	f.TouchPages(0, 2)
	if c := d.Counters(); c.Hits != 0 || c.Misses != 2 {
		t.Errorf("post-drop touches = %+v, want all misses", c)
	}
}

func TestBufferedDataRoundTrip(t *testing.T) {
	d := NewBuffered(DefaultParams(), BufferConfig{Pages: 2})
	f := d.Alloc(8192 * 4)
	in := []byte("cached bytes survive eviction")
	f.WriteAt(in, 8192*3+5)
	// Churn the pool so the written page's frame is evicted.
	f.TouchPages(0, 3)
	out := make([]byte, len(in))
	f.ReadAt(out, 8192*3+5)
	if string(out) != string(in) {
		t.Errorf("round trip = %q, want %q", out, in)
	}
}

func TestPinnedSweepWiderThanPoolBypasses(t *testing.T) {
	d := NewBuffered(DefaultParams(), BufferConfig{Pages: 2})
	f := d.Alloc(8192 * 4)
	// One 4-page read against a 2-frame pool: the first two pages pin
	// the whole pool, the rest must bypass — but the sweep stays one
	// seek and four transfers, like an uncached scan.
	f.TouchPages(0, 4)
	c := d.Counters()
	if c.Seeks != 1 || c.Transfers != 4 {
		t.Errorf("wide sweep cost = %+v, want 1 seek / 4 transfers", c)
	}
	if c.Misses != 4 || c.Hits != 0 {
		t.Errorf("wide sweep hits/misses = %d/%d", c.Hits, c.Misses)
	}
	// The first two pages stayed resident.
	d.ResetCounters()
	f.TouchPages(0, 2)
	if c := d.Counters(); c.Hits != 2 {
		t.Errorf("resident re-read hits = %d, want 2", c.Hits)
	}
}

func TestPrefetchOnSequentialRun(t *testing.T) {
	d := NewBuffered(DefaultParams(), BufferConfig{Pages: 8, Prefetch: 2})
	f := d.Alloc(8192 * 6)
	f.TouchPages(0, 1) // cold: not sequential, no prefetch
	f.TouchPages(1, 1) // sequential: fetches 1, prefetches 2 and 3
	c := d.Counters()
	if c.Prefetches != 2 {
		t.Fatalf("prefetches = %d, want 2", c.Prefetches)
	}
	d.ResetCounters()
	f.TouchPages(2, 2) // both prefetched
	if c := d.Counters(); c.Hits != 2 || c.Transfers != 0 {
		t.Errorf("prefetched pages not hit: %+v", c)
	}
}

func TestPrefetchStopsAtExtentEnd(t *testing.T) {
	d := NewBuffered(DefaultParams(), BufferConfig{Pages: 8, Prefetch: 16})
	f := d.Alloc(8192 * 3)
	f.TouchPages(0, 1)
	f.TouchPages(1, 1) // sequential; only page 2 is left in the extent
	if c := d.Counters(); c.Prefetches != 1 {
		t.Errorf("prefetches = %d, want 1 (extent-bounded)", c.Prefetches)
	}
}

// replayOps drives the same pseudo-random access trace against a disk
// and returns the final counters. All derived values (offsets, sizes)
// come from the rng, so two replays with equal seeds issue identical
// accesses.
func replayOps(d *Disk, seed int64, readOnly bool) Counters {
	r := rand.New(rand.NewSource(seed))
	const pages = 24
	f := d.Alloc(pages * 8192)
	g := d.Alloc(8 * 8192)
	files := []*File{f, g}
	for i := 0; i < 200; i++ {
		fl := files[r.Intn(len(files))]
		switch op := r.Intn(4); {
		case op == 0 && !readOnly:
			n := 1 + r.Intn(3)
			start := r.Intn(int(fl.Pages()) - n + 1)
			fl.TouchPagesWrite(int64(start), int64(n))
		case op == 1 && !readOnly:
			n := 1 + r.Intn(8192)
			off := r.Intn(int(fl.Size()) - n + 1)
			fl.WriteAt(make([]byte, n), int64(off))
		case op == 2:
			n := 1 + r.Intn(8192)
			off := r.Intn(int(fl.Size()) - n + 1)
			fl.ReadAt(make([]byte, n), int64(off))
		default:
			n := 1 + r.Intn(3)
			start := r.Intn(int(fl.Pages()) - n + 1)
			fl.TouchPages(int64(start), int64(n))
		}
	}
	d.FlushBuffers()
	return d.Counters()
}

// Property (acceptance): a buffer pool with budget zero reproduces the
// uncached cost accounting bit for bit on arbitrary traces.
func TestBudgetZeroMatchesUncached(t *testing.T) {
	f := func(seed int64) bool {
		plain := replayOps(New(DefaultParams()), seed, false)
		zero := replayOps(NewBuffered(DefaultParams(), BufferConfig{Pages: 0, Prefetch: 4}), seed, false)
		return plain == zero
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: on read-only traces every page touch is either a hit or a
// miss, and the miss count is exactly the physical transfers of the
// uncached replay minus the absorbed re-reads — so Hits+Misses equals
// the uncached transfer count, and the pool never adds I/O (with
// prefetching off).
func TestReadConservationAgainstUncached(t *testing.T) {
	f := func(seed int64, budget uint8) bool {
		plain := replayOps(New(DefaultParams()), seed, true)
		buffered := replayOps(NewBuffered(DefaultParams(),
			BufferConfig{Pages: 1 + int(budget%32)}), seed, true)
		if buffered.Hits+buffered.Misses != plain.Transfers {
			return false
		}
		return buffered.Transfers <= plain.Transfers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: splitting one sequential sweep into arbitrary contiguous
// chunks charges exactly one seek, regardless of where the chunk
// boundaries fall relative to pages — reading on from the page under
// the head is a continuation, not a new positioning.
func TestChunkedSequentialScanOneSeek(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := New(DefaultParams())
		size := int64(8192*6 + r.Intn(8192*4))
		fl := d.Alloc(size)
		for off := int64(0); off < size; {
			n := int64(1 + r.Intn(3*8192))
			if off+n > size {
				n = size - off
			}
			fl.ReadAt(make([]byte, n), off)
			off += n
		}
		return d.Counters().Seeks == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	// Page-granular chunking additionally transfers each page once.
	d := New(DefaultParams())
	fl := d.Alloc(8192 * 12)
	for _, chunk := range [][2]int64{{0, 5}, {5, 1}, {6, 4}, {10, 2}} {
		fl.TouchPages(chunk[0], chunk[1])
	}
	if c := d.Counters(); c.Seeks != 1 || c.Transfers != 12 {
		t.Errorf("page-chunked scan = %+v, want 1 seek / 12 transfers", c)
	}
}

// Regression for a data race: Alloc mutates the allocation metadata and
// backing array while observability code snapshots counters from other
// goroutines. Run under -race.
func TestAllocConcurrentWithSnapshotsNoRace(t *testing.T) {
	d := NewBuffered(DefaultParams(), BufferConfig{Pages: 8})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f := d.Alloc(8192 * 2)
				f.TouchPages(0, 2)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var before Counters
			for i := 0; i < 300; i++ {
				_ = d.AllocatedPages()
				before = d.Snapshot()
				_ = d.DiffSince(before)
				_ = d.CostSeconds()
			}
		}()
	}
	wg.Wait()
	if d.AllocatedPages() != 4*100*2 {
		t.Errorf("allocated %d pages, want %d", d.AllocatedPages(), 4*100*2)
	}
}

func TestCountersStringAndHitRate(t *testing.T) {
	c := Counters{Seeks: 2, Transfers: 5}
	if s := c.String(); s != "2 seeks, 5 transfers" {
		t.Errorf("uncached String() = %q", s)
	}
	c.Hits, c.Misses = 3, 1
	if got := c.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
	want := "2 seeks, 5 transfers, 3 hits, 1 misses (75.0% hit rate)"
	if s := c.String(); s != want {
		t.Errorf("String() = %q, want %q", s, want)
	}
	if (Counters{}).HitRate() != 0 {
		t.Error("zero counters should have zero hit rate")
	}
}

// BenchmarkBuffer sweeps the pool budget over a fixed mixed workload
// (a hot set of root-like pages plus scattered short scans) and reports
// the hit rate and the simulated I/O seconds (io_s) of one pass next to
// the accounting overhead (ns/op). scripts/bench.sh
// collects the sweep into BENCH_buffer.json.
func BenchmarkBuffer(b *testing.B) {
	const filePages = 256
	type op struct{ start, count int64 }
	r := rand.New(rand.NewSource(1))
	trace := make([]op, 4096)
	for i := range trace {
		if i%4 == 0 {
			trace[i] = op{int64(r.Intn(8)), 1} // hot directory pages
		} else {
			trace[i] = op{int64(r.Intn(filePages - 4)), int64(1 + r.Intn(4))}
		}
	}
	for _, pages := range []int{0, 16, 64, 256} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			b.ReportAllocs()
			var hitRate, ioSeconds float64
			for i := 0; i < b.N; i++ {
				d := NewBuffered(DefaultParams(), BufferConfig{Pages: pages, Prefetch: 4})
				f := d.Alloc(filePages * 8192)
				for _, o := range trace {
					f.TouchPages(o.start, o.count)
				}
				hitRate = 100 * d.Counters().HitRate()
				ioSeconds = d.Counters().CostSeconds(d.Params())
			}
			b.ReportMetric(hitRate, "hit%")
			// The simulated I/O the trace costs, so the pool's CPU time
			// per op stands next to the disk time it saves.
			b.ReportMetric(ioSeconds, "io_s")
		})
	}
}
