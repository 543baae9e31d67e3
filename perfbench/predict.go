package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"hdidx"
	"hdidx/internal/dataset"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
)

// corpusSeed fixes the generated datasets: they are the benchmark's
// corpus, the same in every run. --seed draws the workload from them
// (query points, samples, jitter, inserted points).
const corpusSeed = 20010521

const (
	predictK       = 21
	predictQueries = 500
	predictMemory  = 10000
	// setupRepeats is how often a run sets its system up; setup_s is
	// the median.
	setupRepeats = 3
	// minPredictCalls keeps the median and maximum of the prediction
	// latency meaningful when one call takes most of the run.
	minPredictCalls = 3
)

// corePhases maps the predictor's phase names (Estimate.Phases) to the
// per-layer metrics reporting their wall time.
var corePhases = map[string]string{
	"sample.scan":     "core.sample_scan_s",
	"resample.scan":   "core.resample_scan_s",
	"area.write":      "core.area_write_s",
	"lower.build":     "core.lower_build_s",
	"upper.build":     "core.upper_build_s",
	"intersect.count": "core.intersect_count_s",
}

// runPredict is the paper's pipeline: the resampled restricted-memory
// prediction of k-NN leaf accesses on the full TEXTURE60 stand-in,
// against ground truth measured on the bulk-loaded index in set-up.
func runPredict(r *run) error {
	pts := dataset.Texture60.Generate(rand.New(rand.NewSource(corpusSeed))).Points
	r.note("dataset TEXTURE60 stand-in n=%d dim=%d; k=%d queries=%d memory M=%d (%.1fx the dataset over M)",
		len(pts), len(pts[0]), predictK, predictQueries, predictMemory, float64(len(pts))/predictMemory)
	opts := hdidx.EstimateOptions{K: predictK, Queries: predictQueries, Memory: predictMemory, Seed: r.seed}

	// Set-up: the ground truth, a bulk build of the full index and the
	// measured leaf accesses of the same workload. MeasureKNNAccesses
	// reorders the slice its predictor was given (rtree.Build sorts it in
	// place), which would change the query points a later call with the
	// same seed draws; each set-up therefore measures over its own copy
	// of the slice and the predictions run over the original order.
	var setups []time.Duration
	measured := math.NaN()
	repeats := setupRepeats
	if r.traced {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		gt := append([][]float64(nil), pts...)
		runtime.GC()
		t0 := time.Now()
		pg, err := hdidx.NewPredictor(gt)
		if err != nil {
			return fmt.Errorf("new predictor: %w", err)
		}
		m, err := pg.MeasureKNNAccesses(opts)
		if err != nil {
			return fmt.Errorf("measure ground truth: %w", err)
		}
		setups = append(setups, time.Since(t0))
		if i > 0 && m != measured {
			r.fail("ground truth changed between set-ups: %v then %v", measured, m)
		}
		measured = m
		if i == 0 && !sameOrder(gt, pts) {
			r.note("known defect: Predictor.MeasureKNNAccesses reordered the dataset slice it was given")
		}
	}
	if !(measured > 0) {
		r.fail("measured leaf accesses per query %v, want > 0", measured)
	}
	p, err := hdidx.NewPredictor(pts)
	if err != nil {
		return fmt.Errorf("new predictor: %w", err)
	}
	// One untimed prediction first, so the heap has grown to its working
	// size before the timed calls.
	runtime.GC()
	if _, err := p.EstimateKNN(hdidx.MethodResampled, opts); err != nil {
		return fmt.Errorf("warm-up prediction: %w", err)
	}

	// Measurement: repeated predictions; a traced run alternates
	// untraced and traced calls so it can report its own overhead.
	var lat []time.Duration
	var first []float64
	var est hdidx.Estimate
	phaseWall := map[string][]float64{}
	calls := minPredictCalls
	if r.traced {
		calls = 2 * 2
	}
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for i := 0; i < calls || time.Now().Before(deadline); i++ {
		runtime.GC()
		on := r.traced && i%2 == 1
		r.tr.on.Store(on)
		var e hdidx.Estimate
		var err error
		d := r.tr.do(int64(i), -1, "hdidx.Predictor.EstimateKNN", func(int) {
			e, err = p.EstimateKNN(hdidx.MethodResampled, opts)
		})
		r.attempted++
		if err != nil {
			r.failed++
			lat = append(lat, failedLatency)
			r.note("prediction %d failed: %v", i, err)
			continue
		}
		lat = append(lat, d)
		checkEstimate(r, e)
		if first == nil {
			first, est = e.PerQuery, e
		} else if !sameBits(first, e.PerQuery) {
			r.fail("prediction %d: PerQuery differs from the first prediction of the same seed", i)
		}
		for _, ph := range e.Phases {
			if name, ok := corePhases[ph.Name]; ok {
				phaseWall[name] = append(phaseWall[name], ph.Wall.Seconds())
			}
		}
	}
	r.tr.on.Store(r.traced)
	if first == nil {
		return fmt.Errorf("every prediction failed")
	}

	pred := est.MeanAccesses
	errPct := 100 * math.Abs(pred-measured) / measured
	if errPct > 25 {
		r.fail("predicted %.2f leaf accesses per query, measured %.2f: error %.1f%% above the 25%% sanity limit", pred, measured, errPct)
	}
	var ok []time.Duration
	for _, d := range lat {
		if d != failedLatency {
			ok = append(ok, d)
		}
	}
	var busy time.Duration
	for _, d := range ok {
		busy += d
	}
	r.note("predicted %.3f vs measured %.3f leaf accesses per query; PerQuery sha256 %x",
		pred, measured, perQueryDigest(first))

	if !r.traced {
		r.set("setup_s", median(setups).Seconds(), "s")
		r.set("throughput_per_s", float64(predictQueries*len(ok))/busy.Seconds(), "1/s")
		r.set("p50_us", latencyLimited(r, "prediction latency", lat, 0.5), "us")
		r.set("p75_us", latencyLimited(r, "prediction latency", lat, 0.75), "us")
		r.set("model_fit_pct", 100*math.Min(pred, measured)/math.Max(pred, measured), "%")
		r.note("named metrics: setup_s=%.4g s predict_s=%.4g s predict_err_pct=%.4g %% predict_io_s=%.6g s failed_pct=%.4g %%",
			median(setups).Seconds(), median(ok).Seconds(), errPct, est.PredictionIOSeconds,
			100*float64(r.failed)/float64(r.attempted))
		return nil
	}

	for _, name := range corePhases {
		r.set(name, medianFloat(phaseWall[name]), "s")
	}
	var seeks, transfers int64
	for _, ph := range est.Phases {
		seeks += ph.Seeks
		transfers += ph.Transfers
	}
	r.set("disk.seeks", float64(seeks), "count")
	r.set("disk.transfers", float64(transfers), "count")
	r.set("disk.io_s", est.PredictionIOSeconds, "s")
	r.set("core.err_pct", errPct, "%")
	costs := make([]float64, len(lat))
	for i, d := range lat {
		costs[i] = d.Seconds()
	}
	r.set("trace.overhead_pct", alternatingOverheadPct(costs), "%")

	// Replays of the layer calls behind the pipeline, timed from here.
	rng := rand.New(rand.NewSource(r.seed))
	qs := make([][]float64, predictQueries)
	for i := range qs {
		qs[i] = pts[rng.Intn(len(pts))]
	}
	d := r.tr.do(0, -1, "query.ComputeSpheres", func(int) { query.ComputeSpheres(pts, qs, predictK) })
	r.set("query.spheres_s", d.Seconds(), "s")
	cp := append([][]float64(nil), pts...)
	runtime.GC()
	d = r.tr.do(0, -1, "rtree.Build", func(int) { rtree.Build(cp, rtree.ParamsForGeometry(rtree.NewGeometry(len(pts[0])))) })
	r.set("rtree.build_s", d.Seconds(), "s")
	return nil
}

// checkEstimate checks one estimate's internal consistency.
func checkEstimate(r *run, e hdidx.Estimate) {
	if len(e.PerQuery) != predictQueries {
		r.fail("estimate has %d per-query values, want %d", len(e.PerQuery), predictQueries)
	}
	for i, v := range e.PerQuery {
		if !(v >= 0) || math.IsInf(v, 0) {
			r.fail("estimate per-query value %d is %v", i, v)
			break
		}
	}
	var io float64
	for _, ph := range e.Phases {
		io += ph.IOSeconds
	}
	if !closeTo(io, e.PredictionIOSeconds, 1e-9) {
		r.fail("phase I/O seconds sum to %v, the estimate reports %v", io, e.PredictionIOSeconds)
	}
}

// sameOrder reports whether a and b hold the same point slices in the
// same order.
func sameOrder(a, b [][]float64) bool {
	for i := range a {
		if &a[i][0] != &b[i][0] {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func perQueryDigest(v []float64) []byte {
	h := sha256.New()
	for _, x := range v {
		u := math.Float64bits(x)
		h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24), byte(u >> 32), byte(u >> 40), byte(u >> 48), byte(u >> 56)})
	}
	return h.Sum(nil)[:8]
}
