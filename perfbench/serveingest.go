package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hdidx"
	"hdidx/internal/pager"
	"hdidx/internal/rtree"
)

const (
	// ingestRate is the nominal insert rate that sizes the stream: a
	// run inserts ingestRate points per measured second, so the final
	// index, and with it the model fit, depends on the seed alone.
	ingestRate = 1100
	// ingestWindows splits the stream into equal parts. The reported
	// insert rate and reader latencies are medians over the parts, each
	// part one stretch of index growth; a traced run traces every other
	// part to measure its own overhead.
	ingestWindows = 10
	// ingestReadPause is how long the reader waits after each answer
	// before it sends its next k-NN request. The reader is a closed
	// loop with a pause, not an open loop: beside a writer that keeps
	// one vCPU busy, an open loop at 500/s built a backlog whenever the
	// hypervisor took CPU time: runs that lost 8.6-20% of the CPU to
	// steal read a p75 of 3.0-8.3 ms, against 1.4-1.6 ms in the others.
	ingestReadPause = 2 * time.Millisecond
	// ingestChecks is how many inserted points the checks look up after
	// Flush; ingestProbes is how many k-NN probes compare the answers
	// before and after the restart and feed the model fit, one in
	// probeCheckOneIn of them also checked against brute force.
	ingestChecks    = 256
	ingestProbes    = 1024
	probeCheckOneIn = 4
)

// runServeIngest streams inserts into a durable server while one
// reader queries it, then flushes, closes and restarts the
// server from its manifest and checks that nothing was lost.
func runServeIngest(r *run) error {
	pts := serveCorpus(serveN)
	srv, cfg, setups, err := bootServers(r, pts)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			srv.Close()
		}
	}()
	st0 := srv.Stats()
	dim := len(pts[0])
	total := max(int(r.seconds*ingestRate), ingestWindows)
	r.note("server: n=%d dim=%d shards=%d flatten every %d per shard; one writer inserts %d points while one k=%d reader queries, pausing %v after each answer",
		len(pts), dim, serveShards, serveFlattenEvery, total, serveK, ingestReadPause)

	// The reader: one closed-loop client that pauses after each answer,
	// until the writer is done. Each request is timed from its start
	// and filed under the part of the stream the writer was in.
	var part atomic.Int64
	stop := make(chan struct{})
	readLat := make([][]time.Duration, ingestWindows)
	var readAttempted, readFailed int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(r.seed + 1))
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := jitter(pts[rng.Intn(len(pts))], serveJitter, rng)
			w := part.Load()
			var err error
			d := r.tr.do(i, -1, "hdidx.Server.KNN", func(int) { _, _, err = srv.KNN(q, serveK) })
			readAttempted++
			if err != nil {
				readFailed++
				d = failedLatency
				if !errors.Is(err, hdidx.ErrOverloaded) && !errors.Is(err, hdidx.ErrDeadline) {
					r.note("reader request %d failed: %v", i, err)
				}
			}
			readLat[w] = append(readLat[w], d)
			time.Sleep(ingestReadPause)
		}
	}()

	// The writer: a stream of jittered points. The stream is part of the
	// corpus, the same for every seed, so every run grows the same trees
	// and the seed varies only the queries. Points deal round-robin over
	// the shards and a shard publishes on its FlattenEvery-th pending
	// insert, so the benchmark knows which Insert calls carried a
	// publication.
	rng := rand.New(rand.NewSource(corpusSeed + 1))
	pending := make([]int, serveShards)
	var inserted [][]float64
	var pubLat []time.Duration
	var writeFailed int64
	windowCost := make([]float64, ingestWindows) // seconds per insert
	start := time.Now()
	for w := 0; w < ingestWindows; w++ {
		part.Store(int64(w))
		r.tr.on.Store(r.traced && w%2 == 1)
		wStart, n := time.Now(), 0
		for i := w * total / ingestWindows; i < (w+1)*total/ingestWindows; i++ {
			p := jitter(pts[rng.Intn(len(pts))], serveJitter, rng)
			var err error
			d := r.tr.do(int64(i), -1, "hdidx.Server.Insert", func(int) { err = srv.Insert(p) })
			if err != nil {
				writeFailed++
				r.note("insert %d failed: %v", i, err)
				continue
			}
			sh := (len(pts) + len(inserted)) % serveShards
			inserted = append(inserted, p)
			n++
			if pending[sh]++; pending[sh] == serveFlattenEvery {
				pending[sh] = 0
				pubLat = append(pubLat, d)
			}
		}
		windowCost[w] = time.Since(wStart).Seconds() / float64(max(n, 1))
	}
	r.tr.on.Store(r.traced)
	if err := srv.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	writeTime := time.Since(start)
	close(stop)
	wg.Wait()
	r.attempted = int64(total) + readAttempted
	r.failed = writeFailed + readFailed
	rates := make([]float64, len(windowCost))
	for i, c := range windowCost {
		rates[i] = 1 / c
	}
	insertRate := medianFloat(rates)
	r.note("insert rates of the stream's parts (1/s): %s", fmtFloats(rates))
	if len(pubLat) == 0 {
		r.fail("the stream of %d inserts carried no publication", len(inserted))
		return nil
	}
	publishP50 := ms(median(pubLat))
	knnP50 := groupQuantile(r, "k-NN latency under ingest", readLat, 0.5)
	knnP75 := groupQuantile(r, "k-NN latency under ingest", readLat, 0.75)
	var allLat []time.Duration
	for _, ds := range readLat {
		allLat = append(allLat, ds...)
	}
	knnP99 := latencyLimited(r, "k-NN latency under ingest", allLat, 0.99)

	// After Flush every inserted point is served, and every shard that
	// was dirty published once more.
	st := srv.Stats()
	flushPubs := int64(0)
	for _, n := range pending {
		if n > 0 {
			flushPubs++
		}
	}
	if got, want := st.Publications-st0.Publications, int64(len(pubLat))+flushPubs; got != want {
		r.fail("server published %d snapshots during the stream, the round-robin rule predicts %d", got, want)
	}
	all := append(append([][]float64(nil), pts...), inserted...)
	if st.Points != len(all) || srv.Len() != len(all) {
		r.fail("after Flush the server holds %d points, want %d", srv.Len(), len(all))
	}
	crng := rand.New(rand.NewSource(r.seed + 2))
	for i := 0; i < ingestChecks && len(inserted) > 0; i++ {
		p := inserted[crng.Intn(len(inserted))]
		nbrs, qs, err := srv.KNN(p, 1)
		if err != nil || qs.Radius != 0 || len(nbrs) != 1 || pointKey(nbrs[0]) != pointKey(p) {
			r.fail("inserted point not served after Flush (radius %v, err %v)", qs.Radius, err)
			break
		}
	}
	probes := make([]knnAnswer, ingestProbes)
	keys := pointSet(all)
	for i := range probes {
		q := jitter(all[crng.Intn(len(all))], serveJitter, crng)
		nbrs, qs, err := srv.KNN(q, serveK)
		if err != nil {
			return fmt.Errorf("probe query after Flush: %w", err)
		}
		probes[i] = knnAnswer{q: q, radius: qs.Radius, nbrs: nbrs, leaves: qs.LeafAccesses}
		if i%probeCheckOneIn == 0 {
			checkKNN(r, fmt.Sprintf("probe %d after Flush", i), all, keys, serveK, probes[i])
		}
	}
	ratio, err := modelFit(r, cfg.SnapshotPath, probes)
	if err != nil {
		return err
	}
	written := st.BytesWritten - st0.BytesWritten
	writeAmp := float64(written) / float64(len(inserted)*dim*8)

	// Restart from the manifest: the durability check.
	srv.Close()
	closed = true
	var loadMS float64
	if r.traced {
		d := r.tr.do(0, -1, "replay.load", func(self int) { _, _, err = loadShards(r, self, cfg.SnapshotPath) })
		if err != nil {
			return fmt.Errorf("load durable shards: %w", err)
		}
		loadMS = ms(d)
	}
	var rec *hdidx.Server
	recoverTime := r.tr.do(0, -1, "hdidx.NewServer.recover", func(int) { rec, err = hdidx.NewServer(nil, cfg) })
	if err != nil {
		return fmt.Errorf("restart from the manifest: %w", err)
	}
	if rec.Len() != len(all) {
		r.fail("restarted server holds %d points, want %d", rec.Len(), len(all))
	}
	for i, want := range probes {
		nbrs, qs, err := rec.KNN(want.q, serveK)
		if err != nil {
			rec.Close()
			return fmt.Errorf("probe query after restart: %w", err)
		}
		if math.Float64bits(qs.Radius) != math.Float64bits(want.radius) || !sameRows(nbrs, want.nbrs) {
			r.fail("probe %d: answer after restart differs from the answer before it", i)
		}
	}
	rec.Close()
	r.note("%d inserts (%d publishing) in %v with %d k-NN reads; %d bytes written; restart recovered %d points",
		len(inserted), len(pubLat), writeTime.Round(time.Millisecond), readAttempted, written, len(all))

	if !r.traced {
		r.set("setup_s", median(setups).Seconds(), "s")
		r.set("throughput_per_s", insertRate, "1/s")
		r.set("p50_us", knnP50, "us")
		r.set("p75_us", knnP75, "us")
		r.set("model_fit_pct", fitPct(ratio), "%")
		r.note("named metrics: setup_s=%.4g s ingest_pts_s=%.5g 1/s publish_p50_ms=%.5g write_amp=%.5g knn_p50_us=%.5g knn_p99_us=%.5g recover_s=%.5g s failed_pct=%.4g %%",
			median(setups).Seconds(), insertRate, publishP50, writeAmp, knnP50, knnP99, recoverTime.Seconds(),
			100*float64(r.failed)/float64(r.attempted))
		return nil
	}

	r.set("trace.overhead_pct", alternatingOverheadPct(windowCost), "%")
	r.set("hdidx.publish_p50_ms", publishP50, "ms")
	r.set("pager.write_amp", writeAmp, "ratio")
	r.set("serve.recover_s", recoverTime.Seconds(), "s")
	setServeStats(r, st)
	r.set("core.leaf_obs_over_pred", ratio, "ratio")
	r.set("pager.load_ms", loadMS, "ms")
	size, err := dirBytes(filepath.Dir(cfg.SnapshotPath))
	if err != nil {
		return fmt.Errorf("size the durable directory: %w", err)
	}
	r.set("pager.space_amp", float64(size)/float64(len(all)*dim*8), "ratio")
	return replayIngest(r, pts, inserted)
}

func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// shardFile is the replay's bookkeeping for one shard's durable file.
type shardFile struct {
	gen   int64
	bytes int64
	crc   uint32
}

// replayIngest repeats the server's ingest and publication sequence
// from outside, one layer call at a time: R* insert into per-shard
// dynamic trees, then at every publication flatten, encode, atomic
// write, manifest commit and mmap reopen of the fresh shard file.
func replayIngest(r *run, boot, stream [][]float64) error {
	dir := mkdirAll(filepath.Join(r.dir, "replay"))
	manifest := filepath.Join(dir, "index.manifest")
	g := rtree.NewGeometry(len(boot[0]))
	trees := make([]*rtree.DynamicTree, serveShards)
	for i := range trees {
		trees[i] = rtree.NewDynamic(g)
	}
	files := make([]shardFile, serveShards)
	var gen int64
	publish := func(shards []int) error {
		gen++
		var err error
		r.tr.do(gen, -1, "replay.publish", func(self int) {
			for _, sh := range shards {
				var ft *rtree.FlatTree
				r.tr.do(gen, self, "rtree.FlattenWith", func(int) { ft = trees[sh].FlattenWith(rtree.FlattenOptions{}) })
				r.tr.do(gen, self, "pager.Write", func(int) { _, err = pager.Write(io.Discard, ft, g.PageBytes) })
				if err != nil {
					return
				}
				path := pager.ShardPath(manifest, sh, gen)
				var n int64
				r.tr.do(gen, self, "pager.WriteFileAtomic", func(int) { n, err = pager.WriteFileAtomic(path, ft, g.PageBytes) })
				if err != nil {
					return
				}
				crc, _, serr := pager.FileSummary(path)
				if serr != nil {
					err = serr
					return
				}
				if files[sh].gen != 0 {
					os.Remove(pager.ShardPath(manifest, sh, files[sh].gen))
				}
				files[sh] = shardFile{gen: gen, bytes: n, crc: crc}
				var pg *pager.Snapshot
				r.tr.do(gen, self, "pager.OpenWith", func(int) {
					pg, err = pager.OpenWith(path, pager.Options{Backend: pager.BackendAuto})
				})
				if err != nil {
					return
				}
				pg.Close()
			}
			m := &pager.Manifest{Generation: gen, Dim: g.Dim, Shards: make([]pager.ManifestShard, serveShards)}
			for i, f := range files {
				m.Shards[i] = pager.ManifestShard{Generation: f.gen, Bytes: f.bytes, HeaderCRC: f.crc}
			}
			r.tr.do(gen, self, "pager.WriteManifestAtomic", func(int) { _, err = pager.WriteManifestAtomic(manifest, m) })
		})
		if err != nil {
			return fmt.Errorf("replay publication %d: %w", gen, err)
		}
		return nil
	}
	insert := func(i int, p []float64) int {
		sh := i % serveShards
		r.tr.do(int64(i), -1, "rtree.DynamicTree.Insert", func(int) { trees[sh].Insert(p) })
		return sh
	}
	for i, p := range boot {
		insert(i, p)
	}
	if err := publish([]int{0, 1, 2, 3}); err != nil {
		return err
	}
	pending := make([]int, serveShards)
	for j, p := range stream {
		sh := insert(len(boot)+j, p)
		if pending[sh]++; pending[sh] == serveFlattenEvery {
			pending[sh] = 0
			if err := publish([]int{sh}); err != nil {
				return err
			}
		}
	}
	meanUS := func(name string) float64 {
		ds := r.tr.durations(name)
		if len(ds) == 0 {
			return 0
		}
		return us(r.tr.total(name)) / float64(len(ds))
	}
	r.set("rtree.insert_us", meanUS("rtree.DynamicTree.Insert"), "us")
	r.set("rtree.flatten_ms", meanUS("rtree.FlattenWith")/1000, "ms")
	r.set("pager.encode_ms", meanUS("pager.Write")/1000, "ms")
	r.set("pager.write_ms", meanUS("pager.WriteFileAtomic")/1000, "ms")
	r.set("pager.manifest_ms", meanUS("pager.WriteManifestAtomic")/1000, "ms")
	r.set("pager.open_ms", meanUS("pager.OpenWith")/1000, "ms")
	return nil
}
