package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// failedLatency stands for the latency of a request that failed or was
// refused: it counts as missing every latency limit, so it sorts above
// any measured latency.
const failedLatency = time.Duration(math.MaxInt64)

// quantile returns the nearest-rank q-quantile of ds (which it sorts).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencyLimited reports a latency quantile, rejecting one that lands on
// a failed request: its value would be the failedLatency sentinel.
func latencyLimited(r *run, name string, ds []time.Duration, q float64) float64 {
	v := quantile(ds, q)
	if v == failedLatency {
		r.fail("%s: the %g quantile is a failed request", name, q)
		return 0
	}
	return us(v)
}

// groupQuantile returns the median over the non-empty groups of each
// group's q-quantile in microseconds, and prints the per-group figures.
func groupQuantile(r *run, name string, groups [][]time.Duration, q float64) float64 {
	per := make([]float64, 0, len(groups))
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, latencyLimited(r, name, append([]time.Duration(nil), g...), q))
		}
	}
	if len(per) == 0 {
		r.fail("%s: no requests completed", name)
		return 0
	}
	r.note("%s, %g quantile per part (us): %s", name, q, fmtFloats(per))
	return medianFloat(per)
}

// jitter returns a copy of p moved by Gaussian noise of the given
// standard deviation in every coordinate.
func jitter(p []float64, sigma float64, rng *rand.Rand) []float64 {
	q := make([]float64, len(p))
	for i, x := range p {
		q[i] = x + sigma*rng.NormFloat64()
	}
	return q
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// bruteKNNRadius is the distance from q to its k-th nearest point,
// found by scanning every point.
func bruteKNNRadius(pts [][]float64, q []float64, k int) float64 {
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = sqDist(p, q)
	}
	sort.Float64s(ds)
	return math.Sqrt(ds[k-1])
}

// bruteRangeCount counts the points within radius of q by scanning
// every point.
func bruteRangeCount(pts [][]float64, q []float64, radius float64) int {
	r2 := radius * radius
	n := 0
	for _, p := range pts {
		if sqDist(p, q) <= r2 {
			n++
		}
	}
	return n
}

// pointKey identifies a point by the exact bits of its coordinates.
func pointKey(p []float64) string {
	b := make([]byte, 0, 8*len(p))
	for _, x := range p {
		u := math.Float64bits(x)
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(u>>s))
		}
	}
	return string(b)
}

// closeTo reports whether a and b agree to within rel relative error;
// it absorbs the different summation orders of the program's distance
// kernels and the benchmark's plain loop.
func closeTo(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// fmtFloats formats xs for the human-readable lines of the output.
func fmtFloats(xs []float64) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.4g", x)
	}
	return out
}
