package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hdidx"
	"hdidx/internal/core"
	"hdidx/internal/dataset"
	"hdidx/internal/pager"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
)

// The serving workloads share one server shape: the COLOR64 stand-in
// (64-d) over four durable shards served zero-copy from their files.
const (
	// serveN is the number of points a server boots with. Boot inserts
	// point by point (~0.8 ms a point at 64-d), so N stays small enough
	// to boot several times per run.
	serveN            = 4096
	serveShards       = 4
	serveFlattenEvery = 256
	serveK            = 21
	// serveJitter is the standard deviation of the noise that turns a
	// dataset point into a query or an inserted point.
	serveJitter = 0.01
)

// serveCorpus generates the first n points of the COLOR64 stand-in.
func serveCorpus(n int) [][]float64 {
	spec := dataset.Color64
	spec.N = n
	return spec.Generate(rand.New(rand.NewSource(corpusSeed))).Points
}

func serveConfig(dir string) hdidx.ServeConfig {
	return hdidx.ServeConfig{
		Shards:       serveShards,
		FlattenEvery: serveFlattenEvery,
		SnapshotPath: filepath.Join(dir, "index.manifest"),
		Backend:      hdidx.BackendAuto,
	}
}

// bootServers starts a durable server over pts setupRepeats times (once
// when traced), each into a fresh directory, and keeps the last one.
// It returns the boot times, whose median is setup_s.
func bootServers(r *run, pts [][]float64) (*hdidx.Server, hdidx.ServeConfig, []time.Duration, error) {
	repeats := setupRepeats
	if r.traced {
		repeats = 1
	}
	var (
		srv    *hdidx.Server
		cfg    hdidx.ServeConfig
		setups []time.Duration
	)
	for i := 0; i < repeats; i++ {
		if srv != nil {
			srv.Close()
			os.RemoveAll(filepath.Dir(cfg.SnapshotPath))
		}
		c := serveConfig(mkdirAll(filepath.Join(r.dir, fmt.Sprintf("boot%d", i))))
		runtime.GC()
		var s *hdidx.Server
		var err error
		d := r.tr.do(0, -1, "hdidx.NewServer", func(int) { s, err = hdidx.NewServer(pts, c) })
		if err != nil {
			return nil, c, nil, fmt.Errorf("boot server: %w", err)
		}
		setups = append(setups, d)
		srv, cfg = s, c
	}
	if st := srv.Stats(); !st.Mapped && hdidx.MmapSupported() {
		r.fail("booted server does not serve from its file mappings")
	}
	return srv, cfg, setups, nil
}

// knnAnswer is what a client saw for one k-NN request.
type knnAnswer struct {
	q      []float64
	radius float64
	nbrs   [][]float64
	leaves int
}

// answerLog keeps the first answer of every sampled request, written
// from many client goroutines.
type answerLog struct {
	mu     sync.Mutex
	knn    map[int]knnAnswer
	counts map[int]int
}

func newAnswerLog() *answerLog {
	return &answerLog{knn: map[int]knnAnswer{}, counts: map[int]int{}}
}

func (l *answerLog) addKNN(i int, a knnAnswer) {
	l.mu.Lock()
	if _, ok := l.knn[i]; !ok {
		l.knn[i] = a
	}
	l.mu.Unlock()
}

func (l *answerLog) addCount(i, n int) {
	l.mu.Lock()
	if _, ok := l.counts[i]; !ok {
		l.counts[i] = n
	}
	l.mu.Unlock()
}

// pointSet indexes served points by their exact coordinates.
func pointSet(pts [][]float64) map[string]bool {
	keys := make(map[string]bool, len(pts))
	for _, p := range pts {
		keys[pointKey(p)] = true
	}
	return keys
}

// checkKNN compares a served k-NN answer with a brute-force scan over
// every served point: k distinct served points, none farther than the
// true k-th distance, and the reported radius equal to it.
func checkKNN(r *run, what string, pts [][]float64, keys map[string]bool, k int, a knnAnswer) {
	want := bruteKNNRadius(pts, a.q, k)
	if !closeTo(a.radius, want, 1e-9) {
		r.fail("%s: served radius %v, brute force %v", what, a.radius, want)
		return
	}
	if len(a.nbrs) != k {
		r.fail("%s: %d neighbors, want %d", what, len(a.nbrs), k)
		return
	}
	seen := map[string]bool{}
	prev := 0.0
	for i, n := range a.nbrs {
		key := pointKey(n)
		d := math.Sqrt(sqDist(n, a.q))
		switch {
		case !keys[key]:
			r.fail("%s: neighbor %d is not a served point", what, i)
			return
		case seen[key]:
			r.fail("%s: neighbor %d repeats an earlier neighbor", what, i)
			return
		case d > want*(1+1e-9):
			r.fail("%s: neighbor %d at %v lies beyond the k-th distance %v", what, i, d, want)
			return
		case d < prev*(1-1e-9):
			r.fail("%s: neighbors out of distance order at %d", what, i)
			return
		}
		seen[key], prev = true, d
	}
}

// loadShards reads the manifest at path and loads every shard file it
// names through the pager's verified read path, one span per call.
func loadShards(r *run, parent int, path string) (*pager.Manifest, []*rtree.FlatTree, error) {
	var m *pager.Manifest
	var err error
	r.tr.do(0, parent, "pager.ReadManifest", func(int) { m, err = pager.ReadManifest(path) })
	if err != nil {
		return nil, nil, err
	}
	var out []*rtree.FlatTree
	for i, sh := range m.Shards {
		if sh.Generation == 0 {
			continue
		}
		var ft *rtree.FlatTree
		r.tr.do(0, parent, "pager.Load", func(int) { ft, err = pager.Load(pager.ShardPath(path, i, sh.Generation)) })
		if err != nil {
			return nil, nil, err
		}
		out = append(out, ft)
	}
	return m, out, nil
}

func rows(ft *rtree.FlatTree) [][]float64 {
	out := make([][]float64, ft.NumPoints)
	for i := range out {
		out[i] = ft.Points.Row(i)
	}
	return out
}

// predictedLeaves is the paper's basic model applied to the served
// shards: for every query, the predicted leaf accesses of the query's
// shard-local k-NN sphere on each shard's points, summed over shards.
// The sample fraction follows the predictor's default, the memory
// budget over the shard size (at least 1/C, at most 1).
func predictedLeaves(shards []*rtree.FlatTree, qs [][]float64, k int, seed int64) ([]float64, error) {
	out := make([]float64, len(qs))
	for _, ft := range shards {
		pts := rows(ft)
		g := rtree.NewGeometry(ft.Dim)
		zeta := math.Min(1, math.Max(float64(predictMemory)/float64(len(pts)), 1/float64(g.EffDataCapacity())))
		spheres := query.ComputeSpheres(pts, qs, min(k, len(pts)))
		pr, err := core.PredictBasic(pts, zeta, true, g, spheres, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, fmt.Errorf("basic model on a served shard: %w", err)
		}
		for i, v := range pr.PerQuery {
			out[i] += v
		}
	}
	return out, nil
}

// modelFit compares the observed leaf accesses of the sampled k-NN
// answers with the basic model's prediction for the same spheres on
// the shards named by manifest. It returns observed over predicted
// mean accesses.
func modelFit(r *run, manifest string, answers []knnAnswer) (float64, error) {
	_, shards, err := loadShards(r, -1, manifest)
	if err != nil {
		return 0, fmt.Errorf("load served shards: %w", err)
	}
	qs := make([][]float64, len(answers))
	obs := make([]float64, len(answers))
	for i, a := range answers {
		qs[i], obs[i] = a.q, float64(a.leaves)
	}
	pred, err := predictedLeaves(shards, qs, serveK, r.seed)
	if err != nil {
		return 0, err
	}
	ratio := mean(obs) / mean(pred)
	r.note("leaf accesses per query over %d sampled k-NN answers: observed %.3f, basic model predicts %.3f (ratio %.4f)",
		len(answers), mean(obs), mean(pred), ratio)
	return ratio, nil
}

// fitPct turns an observed/predicted ratio into a share that is 100
// when the model is exact and falls as it drifts either way.
func fitPct(ratio float64) float64 { return 100 * math.Min(ratio, 1/ratio) }

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// alternatingOverheadPct measures the tracing overhead from a phase
// split into parts that alternate untraced (even) and traced (odd).
// costs holds each part's time per operation; each traced part is set
// against the mean of its untraced neighbours, so a steady drift in
// the workload cancels.
func alternatingOverheadPct(costs []float64) float64 {
	var ratios []float64
	for j := 1; j < len(costs); j += 2 {
		ref := costs[j-1]
		if j+1 < len(costs) {
			ref = (ref + costs[j+1]) / 2
		}
		if costs[j] > 0 && ref > 0 {
			ratios = append(ratios, costs[j]/ref)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return 100 * (medianFloat(ratios) - 1)
}

// setServeStats reports the server's own counters and latency sketch.
func setServeStats(r *run, st hdidx.ServerStats) {
	r.set("serve.sketch_p50_us", us(st.KNN.P50), "us")
	r.set("serve.publications", float64(st.Publications), "count")
	r.set("serve.retired", float64(st.RetiredSnapshots), "count")
	r.set("serve.flatten_s", st.FlattenTime.Seconds(), "s")
	r.set("serve.bytes_written", float64(st.BytesWritten), "bytes")
}
