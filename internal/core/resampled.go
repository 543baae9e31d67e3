package core

import (
	"math"

	"hdidx/internal/disk"
	"hdidx/internal/mbr"
	"hdidx/internal/par"
	"hdidx/internal/rtree"
)

// PredictResampled implements the resampled index tree of Section 4.4.
// After the upper tree is built, the dataset is scanned a second time
// at the boosted sampling rate sigma_lower = min(k*M/N, 1); every
// sampled point is assigned to the upper leaf page containing it (or
// the closest page by Euclidean distance, growing that page) and
// written to one of k consecutive disk areas. Each area is then read
// back and its lower tree is bulk-loaded in memory with the full
// M-point budget, its leaf pages compensated by delta(C_eff,data,
// sigma_lower). The prediction counts query-sphere intersections with
// the lower tree leaves.
func PredictResampled(pf *disk.PointFile, cfg Config) (Prediction, error) {
	d := pf.File().Disk()
	before := d.Counters()

	up, err := buildUpper(pf, cfg, true)
	if err != nil {
		return Prediction{}, err
	}
	n := pf.Len()
	k := len(up.grownLeaves)
	sigmaLower := math.Min(float64(k*up.m)/float64(n), 1)

	// (6)-(7) Second scan: resample at sigma_lower and distribute the
	// points over k consecutive disk areas of capacity M each. Points
	// beyond an area's capacity are discarded (paper footnote 5).
	// Assignment tests against the static grown upper leaf pages, not
	// against pages adjusted to the points they receive (Figure 6b):
	// adjusted pages would let early-growing pages capture ever more
	// points — a feedback loop that overflows their areas.
	//
	// The scan decodes every chunk into one reused buffer, so a row
	// lives only until its chunk's buffers are flushed to the areas.
	// The span opened here also covers the first chunk's decode; each
	// chunk reopens it for the next one.
	sp := cfg.Trace.Span(PhaseResampleScan)
	grownSet := mbr.NewRectSet(up.grownLeaves)
	areas := make([]*disk.PointFile, k)
	for i := range areas {
		areas[i] = disk.NewPointFile(d, pf.Dim(), up.m)
	}
	// Read in chunks spanning ~M sampled points each, as in Figure 8.
	srcChunk := scanChunk(up.m)
	if sigmaLower < 1 {
		srcChunk = scanChunk(int(float64(up.m) / sigmaLower))
	}
	buffers := make([][][]float64, k)
	attempted := make([]int, k)
	assign := make([]int, srcChunk)
	pf.Scan(0, n, srcChunk, func(pts [][]float64) {
		// Bernoulli-subsample the chunk at sigma_lower, compacting the
		// row slices in place.
		kept := pts
		if sigmaLower < 1 {
			kept = kept[:0]
			for _, p := range pts {
				if cfg.Rng.Float64() < sigmaLower {
					kept = append(kept, p)
				}
			}
		}
		// Classify in parallel against the static grown pages, then
		// buffer each point for its area in scan order.
		assign = assign[:len(kept)]
		classifyPoints(kept, grownSet, assign, cfg.DiscardOutside, cfg.pool())
		for i, p := range kept {
			b := assign[i]
			if b < 0 {
				continue // DiscardOutside ablation
			}
			attempted[b]++
			buffers[b] = append(buffers[b], p)
		}
		sp.End()
		// Flush each non-empty buffer to its area: one seek plus the
		// page transfers per area, as in the paper's distribution step.
		sp = cfg.Trace.Span(PhaseAreaWrite)
		for b, buf := range buffers {
			if len(buf) == 0 {
				continue
			}
			free := areas[b].Cap() - areas[b].Len()
			if len(buf) > free {
				buf = buf[:free]
			}
			if len(buf) > 0 {
				areas[b].AppendAll(buf)
			}
			buffers[b] = buffers[b][:0]
		}
		sp.End()
		sp = cfg.Trace.Span(PhaseResampleScan)
	})
	sp.End()

	// (8)-(11) Build each lower tree on its area with full memory.
	// The areas are read back here, in area order, so the disk sees
	// the same accesses at every pool width; each area's build runs on
	// the pool. Fork builds inline when every slot is busy, so at most
	// pool-width builds run at a time, and each area decodes into one
	// of pool-width recycled buffers: a build hands its buffer back
	// once the leaf rectangles (which own their corners) are taken.
	sp = cfg.Trace.Span(PhaseLowerBuild)
	ceff := float64(up.topo.EffDataCapacity())
	dirCap := float64(up.topo.EffDirCapacity())
	perArea := make([][]mbr.Rect, k)
	joins := make([]func(), 0, k)
	pool := cfg.pool()
	g := pool.Group()
	// A free list, not a queue: at most pool-width - 1 forked builds
	// hold a buffer while the caller decodes the next area, so a
	// receive never waits.
	spare := make(chan *disk.Rows, pool.Workers())
	for i := 0; i < cap(spare); i++ {
		spare <- new(disk.Rows)
	}
	for i, area := range areas {
		if DebugResampled != nil {
			DebugResampled("area %d: stored=%d attempted=%d cap=%d", i, area.Len(), attempted[i], area.Cap())
		}
		if area.Len() == 0 {
			// An upper leaf that attracted no resampled points: fall
			// back to the cutoff geometry for its subtree. An area
			// stays empty only if no point was assigned to it, so its
			// page is the static grown upper leaf.
			perArea[i] = splitBoxToLeaves(up.grownLeaves[i], up.topo, up.leafLevel)
			continue
		}
		// The nominal rate is sigma_lower; the adaptive extension
		// additionally accounts for points this area lost to capacity
		// overflow (paper footnote 5 discards them silently).
		zeta := sigmaLower
		if cfg.AdaptiveCompensation {
			zeta = sigmaLower * float64(area.Len()) / float64(attempted[i])
		}
		buf := <-spare
		pts := area.ReadRangeInto(buf, 0, area.Len())
		joins = append(joins, g.Fork(func() {
			defer func() { spare <- buf }()
			lower := rtree.Build(pts, rtree.BuildParams{
				LeafCap: ceff * zeta,
				DirCap:  dirCap,
				Height:  up.leafLevel,
				Workers: cfg.Workers,
			})
			compensate := safeCompensation(ceff, zeta)
			rects := lower.LeafRects()
			for j, r := range rects {
				rects[j] = r.GrowCentered(compensate)
			}
			perArea[i] = rects
		}))
	}
	for _, join := range joins {
		join()
	}
	leaves := make([]mbr.Rect, 0, up.topo.Leaves())
	for _, rects := range perArea {
		leaves = append(leaves, rects...)
	}
	sp.End()

	// On a buffered disk the area writes were deferred to write-back;
	// flush so the reported I/O covers every page the prediction wrote.
	if d.BufferPages() > 0 {
		sp = cfg.Trace.Span(PhaseBufferFlush)
		d.FlushBuffers()
		sp.End()
	}

	p := Prediction{
		Method:      "resampled",
		HUpper:      up.hUpper,
		SigmaUpper:  up.sigmaUpper,
		SigmaLower:  sigmaLower,
		UpperLeaves: k,
		LeafRects:   leaves,
		IO:          d.Counters().Sub(before),
	}
	p.IOSeconds = p.IO.CostSeconds(d.Params())
	sp = cfg.Trace.Span(PhaseIntersect)
	countIntersections(&p, up.spheres, cfg.pool())
	sp.End()
	p.Phases = cfg.Trace.Phases()
	return p, nil
}

// classifyPoints assigns each point to the index of the box containing
// it, or the closest box by MinDist when none contains it. With
// discardOutside, points contained in no box get -1 instead. The
// assignment runs the flat early-exit classifier in parallel over
// points on pool.
func classifyPoints(pts [][]float64, boxes *mbr.RectSet, out []int, discardOutside bool, pool par.Pool) {
	pool.For(len(pts), func(i int) {
		best, contained := boxes.Classify(pts[i])
		if discardOutside && !contained {
			best = -1
		}
		out[i] = best
	})
}

// DebugResampled, when non-nil, receives diagnostics from
// PredictResampled. Test-only hook.
var DebugResampled func(format string, args ...interface{})
