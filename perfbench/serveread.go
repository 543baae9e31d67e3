package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hdidx"
	"hdidx/internal/obs"
	"hdidx/internal/pager"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
)

const (
	// readRate is the open-loop arrival rate: about a ninth of the
	// closed-loop rate on a 2-vCPU host, so the latency stays that of a
	// lightly loaded server even when the host loses half its speed.
	readRate = 500
	// rangeRadius is the fixed radius of the range calls.
	rangeRadius = 0.1
	// checkOneIn samples one request in this many for the brute-force
	// correctness check (and the model-fit comparison).
	checkOneIn = 10
	// readRequests is the length of the seeded request stream; clients
	// cycle through it.
	readRequests = 8192
	// sliceDur is the length of the closed-loop slices: read_qps is the
	// median slice rate, and a traced run alternates untraced and traced
	// slices to measure its own overhead.
	sliceDur = 500 * time.Millisecond
	// windowDur is the length of the open-loop windows whose latency
	// quantiles the run reports the median of.
	windowDur = 500 * time.Millisecond
)

type readReq struct {
	q       []float64
	isRange bool
	check   bool
}

// readLoad issues the read requests and collects what the clients saw.
type readLoad struct {
	r    *run
	srv  *hdidx.Server
	reqs []readReq
	log  *answerLog

	attempted, failed atomic.Int64
}

// issue sends request i (cycling through the stream) and returns
// whether it was a range call and whether it succeeded. Failures of
// any kind count: overload, deadline, or any other error. No request
// is retried.
func (l *readLoad) issue(i int) (isRange, ok bool) {
	idx := i % len(l.reqs)
	req := l.reqs[idx]
	l.attempted.Add(1)
	var err error
	if req.isRange {
		var n int
		l.r.tr.do(int64(i), -1, "hdidx.Server.RangeCount", func(int) { n, err = l.srv.RangeCount(req.q, rangeRadius) })
		if err == nil && req.check {
			l.log.addCount(idx, n)
		}
	} else {
		var nbrs [][]float64
		var st hdidx.QueryStats
		l.r.tr.do(int64(i), -1, "hdidx.Server.KNN", func(int) { nbrs, st, err = l.srv.KNN(req.q, serveK) })
		if err == nil && req.check {
			l.log.addKNN(idx, knnAnswer{q: req.q, radius: st.Radius, nbrs: nbrs, leaves: st.LeafAccesses})
		}
	}
	if err != nil {
		l.failed.Add(1)
		if !errors.Is(err, hdidx.ErrOverloaded) && !errors.Is(err, hdidx.ErrDeadline) {
			l.r.note("request %d failed: %v", i, err)
		}
		return req.isRange, false
	}
	return req.isRange, true
}

// runServeRead serves a read-only mix from a booted durable server in
// cycles of two parts: a closed-loop slice measuring capacity and an
// open-loop window at a fixed rate measuring latency. Interleaved, both
// figures sample the host over the whole measured time.
func runServeRead(r *run) error {
	pts := serveCorpus(serveN)
	srv, cfg, setups, err := bootServers(r, pts)
	if err != nil {
		return err
	}
	defer srv.Close()
	rng := rand.New(rand.NewSource(r.seed))
	reqs := make([]readReq, readRequests)
	for i := range reqs {
		reqs[i] = readReq{
			q:       jitter(pts[rng.Intn(len(pts))], serveJitter, rng),
			isRange: i%10 == 9,
			check:   rng.Intn(checkOneIn) == 0,
		}
	}
	load := &readLoad{r: r, srv: srv, reqs: reqs, log: newAnswerLog()}
	cycles := max(int(r.seconds*float64(time.Second)/float64(sliceDur+windowDur)), 1)
	r.note("server: n=%d dim=%d shards=%d k=%d range radius %g; %d cycles of a %v closed-loop slice (one client) and a %v open-loop window at %d/s",
		len(pts), len(pts[0]), serveShards, serveK, rangeRadius, cycles, sliceDur, windowDur, readRate)

	var next atomic.Int64
	var wg sync.WaitGroup
	period := time.Second / readRate
	perWindow := max(int(windowDur/period), 1)
	rates := make([]float64, cycles)
	knnWin := make([][]time.Duration, cycles)
	rangeWin := make([][]time.Duration, cycles)
	var late []time.Duration
	for c := 0; c < cycles; c++ {
		// Closed loop of one client. With two, on a 2-vCPU host the rate
		// settled run by run near either 4,600/s or 6,000/s, depending on
		// whether the callers fell into shared batches. A traced run
		// alternates untraced and traced slices to measure its overhead.
		if r.traced {
			r.tr.on.Store(c%2 == 1)
		}
		done := 0
		start := time.Now()
		for time.Since(start) < sliceDur {
			if _, ok := load.issue(int(next.Add(1) - 1)); ok {
				done++
			}
		}
		rates[c] = float64(done) / time.Since(start).Seconds()

		// Open loop from one generator, timed from each request's due
		// time.
		r.tr.on.Store(r.traced)
		lat := make([]time.Duration, perWindow)
		isRange := make([]bool, perWindow)
		start = time.Now()
		for i := range lat {
			due := start.Add(time.Duration(i) * period)
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			late = append(late, time.Since(due))
			id := int(next.Add(1) - 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				rg, ok := load.issue(id)
				isRange[i] = rg
				lat[i] = failedLatency
				if ok {
					lat[i] = time.Since(due)
				}
			}()
		}
		wg.Wait()
		for i, d := range lat {
			if isRange[i] {
				rangeWin[c] = append(rangeWin[c], d)
			} else {
				knnWin[c] = append(knnWin[c], d)
			}
		}
	}
	readQPS := medianFloat(rates)
	r.note("closed-loop slice rates (1/s): %s", fmtFloats(rates))
	var knns []time.Duration
	for _, w := range knnWin {
		knns = append(knns, w...)
	}
	lateP99 := us(quantile(late, 0.99))
	knnP50 := groupQuantile(r, "open-loop k-NN latency", knnWin, 0.5)
	knnP75 := groupQuantile(r, "open-loop k-NN latency", knnWin, 0.75)
	knnP99 := latencyLimited(r, "open-loop k-NN latency", knns, 0.99)
	rangeP50 := groupQuantile(r, "open-loop range latency", rangeWin, 0.5)
	r.attempted, r.failed = load.attempted.Load(), load.failed.Load()

	// Correctness: every sampled answer against a brute-force scan over
	// the served points.
	keys := pointSet(pts)
	var answers []knnAnswer
	for i, a := range load.log.knn {
		checkKNN(r, fmt.Sprintf("k-NN request %d", i), pts, keys, serveK, a)
		answers = append(answers, a)
	}
	for i, got := range load.log.counts {
		if want := bruteRangeCount(pts, reqs[i].q, rangeRadius); got != want {
			r.fail("range request %d: served count %d, brute force %d", i, got, want)
		}
	}
	if len(answers) == 0 || len(load.log.counts) == 0 {
		r.fail("no sampled answers to check (%d k-NN, %d range)", len(answers), len(load.log.counts))
		return nil
	}
	r.note("checked %d k-NN and %d range answers against brute force; %d of %d requests failed; generator late p99 %.1f us",
		len(answers), len(load.log.counts), r.failed, r.attempted, lateP99)
	ratio, err := modelFit(r, cfg.SnapshotPath, answers)
	if err != nil {
		return err
	}

	if !r.traced {
		r.set("setup_s", median(setups).Seconds(), "s")
		r.set("throughput_per_s", readQPS, "1/s")
		r.set("p50_us", knnP50, "us")
		r.set("p75_us", knnP75, "us")
		r.set("model_fit_pct", fitPct(ratio), "%")
		r.note("named metrics: setup_s=%.4g s read_qps=%.5g 1/s knn_p50_us=%.5g knn_p99_us=%.5g range_p50_us=%.5g failed_pct=%.4g %% loadgen.late_p99_us=%.4g",
			median(setups).Seconds(), readQPS, knnP50, knnP99, rangeP50, 100*float64(r.failed)/float64(r.attempted), lateP99)
		return nil
	}

	costs := make([]float64, len(rates))
	for i, rate := range rates {
		costs[i] = 1 / rate
	}
	r.set("trace.overhead_pct", alternatingOverheadPct(costs), "%")
	r.set("loadgen.late_p99_us", lateP99, "us")
	r.set("hdidx.range_p50_us", rangeP50, "us")
	r.set("core.leaf_obs_over_pred", ratio, "ratio")
	setServeStats(r, srv.Stats())
	return replayReads(r, cfg.SnapshotPath, load, knnP50)
}

// replayReads re-runs the served requests through the query layer on
// the shard snapshots, opened read-only from the manifest, and times
// each layer call: per-shard traversal, merge and range search. The
// client p50 minus the replayed search+merge p50 is the serving
// overhead (queue wait, batch formation and reply).
func replayReads(r *run, manifest string, load *readLoad, clientP50 float64) error {
	var m *pager.Manifest
	var shards []*rtree.FlatTree
	var err error
	d := r.tr.do(0, -1, "replay.load", func(self int) { m, shards, err = loadShards(r, self, manifest) })
	if err != nil {
		return fmt.Errorf("load shards: %w", err)
	}
	r.set("pager.load_ms", ms(d), "ms")
	var opens []time.Duration
	for i, sh := range m.Shards {
		if sh.Generation == 0 {
			continue
		}
		var pg *pager.Snapshot
		opens = append(opens, r.tr.do(0, -1, "pager.OpenWith", func(int) {
			pg, err = pager.OpenWith(pager.ShardPath(manifest, i, sh.Generation), pager.Options{Backend: pager.BackendAuto})
		}))
		if err != nil {
			return fmt.Errorf("open shard %d: %w", i, err)
		}
		pg.Close()
	}
	r.set("pager.open_ms", ms(median(opens)), "ms")

	// k-NN: one query per batch, as the open loop mostly delivers them.
	var search, merge, total []time.Duration
	var leaves, dirs, useful, searched float64
	var ranges []time.Duration
	for i, req := range load.reqs {
		if req.isRange {
			n := 0
			ranges = append(ranges, r.tr.do(int64(i), -1, "replay.range", func(self int) {
				for _, ft := range shards {
					r.tr.do(int64(i), self, "query.RangeSearchFlat", func(int) {
						c, _ := query.RangeSearchFlat(ft, query.Sphere{Center: req.q, Radius: rangeRadius})
						n += c
					})
				}
			}))
			if want, ok := load.log.counts[i]; ok && want != n {
				r.fail("range request %d: replay counts %d, the server counted %d", i, n, want)
			}
			continue
		}
		parts := make([]query.Result, len(shards))
		var res query.Result
		var s time.Duration
		var mg time.Duration
		t := r.tr.do(int64(i), -1, "replay.knn", func(self int) {
			for si, ft := range shards {
				s += r.tr.do(int64(i), self, "query.KNNSearchFlatBatch", func(int) {
					parts[si] = query.KNNSearchFlatBatch(ft, [][]float64{req.q}, []int{min(serveK, ft.NumPoints)})[0]
				})
			}
			mg = r.tr.do(int64(i), self, "query.KNNMerge", func(int) { res = query.KNNMerge(req.q, serveK, parts) })
		})
		search, merge, total = append(search, s), append(merge, mg), append(total, t)
		leaves += float64(res.LeafAccesses)
		dirs += float64(res.DirAccesses)
		final := map[*float64]bool{}
		for _, nb := range res.Neighbors {
			final[&nb[0]] = true
		}
		for _, p := range parts {
			searched++
			for _, nb := range p.Neighbors {
				if final[&nb[0]] {
					useful++
					break
				}
			}
		}
		if a, ok := load.log.knn[i]; ok && a.radius != res.Radius {
			r.fail("k-NN request %d: replay radius %v, the server answered %v", i, res.Radius, a.radius)
		}
	}
	nq := float64(len(search))
	r.set("query.knn_batch_us", us(median(search)), "us")
	r.set("query.merge_us", us(median(merge)), "us")
	r.set("query.leaf_accesses", leaves/nq, "count")
	r.set("query.dir_accesses", dirs/nq, "count")
	r.set("query.shard_useful_frac", useful/searched, "ratio")
	r.set("query.range_us", us(median(ranges)), "us")
	r.set("serve.overhead_us", clientP50-us(median(total)), "us")

	// The latency sketch every served request passes through, driven
	// from one goroutine per CPU.
	const perG = 200000
	sk := obs.NewLatencySketch(0)
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	d = r.tr.do(0, -1, "obs.LatencySketch.Observe", func(int) {
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					sk.Observe(time.Duration(i*(g+1)) % time.Millisecond)
				}
			}(g)
		}
		wg.Wait()
	})
	r.set("obs.observe_ns", float64(d.Nanoseconds())/perG, "ns")
	return nil
}
