// Command perfbench is the repository benchmark. It runs one named
// workload against the public API and the internal layers of hdidx,
// checks every answer it samples, and prints its metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 they are its per-layer metrics, timed
// from outside the program by spans around calls into the layers'
// public functions. The lines before the JSON line are for people:
// the run's context, every metric by name and unit, and (traced) the
// self time of every span name.
//
// Run it from the repository root through perfbench/run.sh, which
// builds the binary first:
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// workspace is where runs keep their durable server files and traces,
// relative to the directory the benchmark runs in. The build output
// lives there too, so one ignore rule covers everything a run leaves.
const workspace = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchDef is the part of BENCHMARK.json the binary needs: the metric
// names and units it must report, and the reason each workload exists.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// run carries one run's settings and collects what it measured.
type run struct {
	seed    int64
	seconds float64
	traced  bool
	dir     string // private scratch directory under workspace
	tr      *tracer

	attempted, failed int64
	metrics           map[string]metric

	mu       sync.Mutex // guards problems and info: client goroutines report into them
	problems []string
	info     []string
}

// fail records a failed correctness check; any failure makes the run
// incorrect.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// set records a metric. Values must be finite: JSON has no NaN or Inf,
// and a non-finite metric is a benchmark bug, reported as a failed
// check rather than printed.
func (r *run) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.fail("metric %s is not finite (%v)", name, value)
		value = 0
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// note adds a line of context to the human-readable part of the output.
func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	r.info = append(r.info, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

var workloads = map[string]func(*run) error{
	"predict":      runPredict,
	"serve-read":   runServeRead,
	"serve-ingest": runServeIngest,
}

func main() {
	workload := flag.String("workload", "", "workload: predict, serve-read or serve-ingest")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "seconds each run measures")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func mainErr(workload string, seed int64, seconds float64, trace int) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want predict, serve-read or serve-ingest)", workload)
	}
	if seconds <= 0 || math.IsInf(seconds, 0) || math.IsNaN(seconds) {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	def, err := readBenchDef("BENCHMARK.json")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(mkdirAll(workspace), "run-"+workload+"-")
	if err != nil {
		return fmt.Errorf("create run directory: %w", err)
	}
	defer os.RemoveAll(dir)

	r := &run{
		seed: seed, seconds: seconds, traced: trace == 1,
		dir: dir, tr: newTracer(trace == 1), metrics: map[string]metric{},
	}
	r.note("workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s",
		workload, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, w := range def.Workloads {
		if w.Name == workload {
			r.note("why: %s", w.Why)
		}
	}
	steal0, total0 := cpuSteal()
	if err := fn(r); err != nil {
		return fmt.Errorf("workload %s: %w", workload, err)
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		r.note("cpu time stolen by the hypervisor during the run: %.1f%%", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if r.traced {
		path := filepath.Join(workspace, "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := r.tr.writeFile(mkdirAll(filepath.Dir(path)), filepath.Base(path)); err != nil {
			return err
		}
		r.note("spans: %d written to %s", r.tr.len(), path)
		r.info = append(r.info, r.tr.selfTimeTable()...)
	}
	want := def.EndToEnd
	if r.traced {
		want = def.PerLayer
	}
	return r.emit(want)
}

// emit prints the human-readable lines and then the JSON result line.
// Every metric BENCHMARK.json lists for this mode must have been
// recorded with the unit it declares; a workload that does not exercise
// a per-layer metric's layer records it as 0.
func (r *run) emit(want []metricDef) error {
	out := map[string]metric{}
	var idle []string
	for _, d := range want {
		m, ok := r.metrics[d.Name]
		if !ok && r.traced {
			// The workload does not exercise this layer: it did no work.
			m, ok = metric{Value: 0, Unit: d.Unit}, true
			idle = append(idle, d.Name)
			r.metrics[d.Name] = m
		}
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", d.Name, m.Unit, d.Unit)
		}
		out[d.Name] = m
	}
	if len(idle) > 0 {
		r.note("layers this workload does not exercise, reported as 0: %s", strings.Join(idle, " "))
	}
	if r.attempted < 1 {
		r.fail("the run attempted no operation")
	}
	for _, line := range r.info {
		fmt.Println("#", line)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("# metric %-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Println("# FAILED CHECK:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, out})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	if len(r.problems) > 0 {
		return errors.New("correctness checks failed: " + strings.Join(r.problems, "; "))
	}
	return nil
}

func readBenchDef(path string) (benchDef, error) {
	var def benchDef
	b, err := os.ReadFile(path)
	if err != nil {
		return def, fmt.Errorf("read metric definitions (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return def, fmt.Errorf("parse %s: %w", path, err)
	}
	return def, nil
}

// cpuSteal reads the cumulative steal and total CPU time from
// /proc/stat, in clock ticks; both are 0 where it is unavailable.
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// mkdirAll creates dir (ignoring the error: the caller's next file
// operation in it reports any failure with a better message).
func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}
