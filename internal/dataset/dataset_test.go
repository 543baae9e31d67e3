package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hdidx/internal/vec"
)

func TestGenerateUniformShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := GenerateUniform("u", 500, 8, rng)
	if d.N() != 500 || d.Dim() != 8 {
		t.Fatalf("shape = %d x %d", d.N(), d.Dim())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Points {
		for _, v := range p {
			if v < 0 || v >= 1 {
				t.Fatalf("uniform value %v outside [0,1)", v)
			}
		}
	}
}

func TestUniformIsRoughlyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := GenerateUniform("u", 20000, 2, rng)
	mean := make([]float64, 2)
	vec.Mean(d.Points, mean)
	for j, m := range mean {
		if math.Abs(m-0.5) > 0.02 {
			t.Errorf("mean[%d] = %v, want ~0.5", j, m)
		}
	}
}

func TestClusteredSpecShapes(t *testing.T) {
	for _, s := range []Spec{Color64.Scaled(0.01), Texture48.Scaled(0.02), Texture60.Scaled(0.005)} {
		rng := rand.New(rand.NewSource(3))
		d := s.Generate(rng)
		if d.N() != s.N || d.Dim() != s.Dim {
			t.Errorf("%s: shape %dx%d, want %dx%d", s.Name, d.N(), d.Dim(), s.N, s.Dim)
		}
		if err := d.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestClusteredVarianceDecays(t *testing.T) {
	// The KLT-like generator must concentrate variance in leading dims.
	rng := rand.New(rand.NewSource(4))
	s := Texture60.Scaled(0.02)
	d := s.Generate(rng)
	dim := d.Dim()
	mean := make([]float64, dim)
	variance := make([]float64, dim)
	vec.Mean(d.Points, mean)
	vec.Variance(d.Points, mean, variance)
	firstQuarter, lastQuarter := 0.0, 0.0
	for j := 0; j < dim/4; j++ {
		firstQuarter += variance[j]
	}
	for j := 3 * dim / 4; j < dim; j++ {
		lastQuarter += variance[j]
	}
	if firstQuarter < 10*lastQuarter {
		t.Errorf("variance decay too weak: first quarter %v vs last quarter %v", firstQuarter, lastQuarter)
	}
}

func TestScaled(t *testing.T) {
	s := Texture60.Scaled(0.1)
	if s.N != 27547 && s.N != 27546 {
		t.Errorf("Scaled N = %d", s.N)
	}
	if s.Dim != 60 {
		t.Errorf("Scaled Dim = %d", s.Dim)
	}
	tiny := Spec{Name: "x", N: 3, Dim: 2}.Scaled(0.0001)
	if tiny.N < 1 {
		t.Error("Scaled must keep at least one point")
	}
}

func TestTimeSeriesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := Stock360.Scaled(0.01)
	d := s.Generate(rng)
	if d.N() != s.N || d.Dim() != 360 {
		t.Fatalf("shape %dx%d", d.N(), d.Dim())
	}
	// DFT of a random walk concentrates energy in low frequencies: the
	// DC and first few coefficients must dominate.
	dim := d.Dim()
	mean := make([]float64, dim)
	variance := make([]float64, dim)
	vec.Mean(d.Points, mean)
	vec.Variance(d.Points, mean, variance)
	lowE, highE := 0.0, 0.0
	for j := 0; j < 20; j++ {
		lowE += variance[j] + mean[j]*mean[j]
	}
	for j := dim - 20; j < dim; j++ {
		highE += variance[j] + mean[j]*mean[j]
	}
	if lowE < 100*highE {
		t.Errorf("DFT energy not concentrated: low %v vs high %v", lowE, highE)
	}
}

func TestDFTRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 9, 17, 64, 360} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		back := InverseDFTReal(DFTReal(x))
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip x[%d] = %v, want %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestDFTConstantSignal(t *testing.T) {
	x := []float64{5, 5, 5, 5}
	c := DFTReal(x)
	if math.Abs(c[0]-5) > 1e-12 {
		t.Errorf("DC = %v, want 5", c[0])
	}
	for i := 1; i < len(c); i++ {
		if math.Abs(c[i]) > 1e-12 {
			t.Errorf("coef[%d] = %v, want 0", i, c[i])
		}
	}
}

// Property: DFTReal/InverseDFTReal invert each other for random
// lengths and values.
func TestDFTRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		back := InverseDFTReal(DFTReal(x))
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFitKLTRecoversAxes(t *testing.T) {
	// Data spread along a known rotated axis in 2-d: KLT's first basis
	// vector must align with it.
	rng := rand.New(rand.NewSource(6))
	dir := []float64{3.0 / 5.0, 4.0 / 5.0}
	pts := make([][]float64, 2000)
	for i := range pts {
		a := rng.NormFloat64() * 10
		b := rng.NormFloat64() * 0.1
		pts[i] = []float64{a*dir[0] - b*dir[1] + 7, a*dir[1] + b*dir[0] - 3}
	}
	k, err := FitKLT(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.Mean[0]-7) > 0.5 || math.Abs(k.Mean[1]+3) > 0.5 {
		t.Errorf("mean = %v", k.Mean)
	}
	if k.Eigenvalues[0] < k.Eigenvalues[1] {
		t.Error("eigenvalues not sorted descending")
	}
	align := math.Abs(k.Basis[0][0]*dir[0] + k.Basis[0][1]*dir[1])
	if align < 0.999 {
		t.Errorf("first axis alignment = %v, want ~1", align)
	}
}

func TestKLTDecorrelates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([][]float64, 1000)
	for i := range pts {
		a := rng.NormFloat64()
		pts[i] = []float64{a + 0.1*rng.NormFloat64(), a + 0.1*rng.NormFloat64(), rng.NormFloat64()}
	}
	k, err := FitKLT(pts)
	if err != nil {
		t.Fatal(err)
	}
	tr := k.ApplyAll(pts)
	// Transformed coordinates must be (near) uncorrelated.
	d := 3
	mean := make([]float64, d)
	vec.Mean(tr, mean)
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			var cov float64
			for _, p := range tr {
				cov += (p[i] - mean[i]) * (p[j] - mean[j])
			}
			cov /= float64(len(tr))
			if math.Abs(cov) > 0.01 {
				t.Errorf("cov[%d][%d] = %v, want ~0", i, j, cov)
			}
		}
	}
}

func TestKLTBasisOrthonormalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(6)
		n := 20 + r.Intn(100)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = r.NormFloat64()
			}
		}
		k, err := FitKLT(pts)
		if err != nil {
			return false
		}
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				dot := vec.Dot(k.Basis[i], k.Basis[j])
				want := 0.0
				if i == j {
					want = 1.0
				}
				if math.Abs(dot-want) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFitKLTTooFewPoints(t *testing.T) {
	if _, err := FitKLT([][]float64{{1, 2}}); err == nil {
		t.Error("expected error for single point")
	}
}

func TestBernoulliSampleRate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := make([][]float64, 100000)
	for i := range pts {
		pts[i] = []float64{float64(i)}
	}
	s := BernoulliSample(pts, 0.1, rng)
	got := float64(len(s)) / float64(len(pts))
	if math.Abs(got-0.1) > 0.01 {
		t.Errorf("sample rate = %v, want ~0.1", got)
	}
	full := BernoulliSample(pts, 1, rng)
	if len(full) != len(pts) {
		t.Errorf("rate 1 kept %d of %d", len(full), len(pts))
	}
	empty := BernoulliSample(pts, 0, rng)
	if len(empty) != 0 {
		t.Errorf("rate 0 kept %d", len(empty))
	}
}

func TestBernoulliSampleBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BernoulliSample(nil, 1.5, rand.New(rand.NewSource(1)))
}

func TestSampleExactSizeAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([][]float64, 1000)
	for i := range pts {
		pts[i] = []float64{float64(i)}
	}
	s := SampleExact(pts, 100, rng)
	if len(s) != 100 {
		t.Fatalf("size = %d, want 100", len(s))
	}
	seen := map[float64]bool{}
	for _, p := range s {
		if seen[p[0]] {
			t.Fatalf("duplicate sample %v", p[0])
		}
		seen[p[0]] = true
	}
	all := SampleExact(pts, 5000, rng)
	if len(all) != 1000 {
		t.Errorf("oversized request returned %d", len(all))
	}
}

func TestSampleExactUnbiased(t *testing.T) {
	// Each element should be picked with probability m/n.
	rng := rand.New(rand.NewSource(10))
	pts := make([][]float64, 10)
	for i := range pts {
		pts[i] = []float64{float64(i)}
	}
	counts := make([]int, 10)
	const trials = 20000
	for tr := 0; tr < trials; tr++ {
		for _, p := range SampleExact(pts, 3, rng) {
			counts[int(p[0])]++
		}
	}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.3) > 0.02 {
			t.Errorf("element %d picked with rate %v, want ~0.3", i, got)
		}
	}
}

func TestReservoirExactWhenSmallStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := NewReservoir(10, rng)
	for i := 0; i < 5; i++ {
		r.Offer([]float64{float64(i)})
	}
	if len(r.Sample()) != 5 || r.Seen() != 5 {
		t.Errorf("reservoir holds %d of %d", len(r.Sample()), r.Seen())
	}
}

func TestReservoirUniformity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	counts := make([]int, 20)
	const trials = 5000
	for tr := 0; tr < trials; tr++ {
		r := NewReservoir(5, rng)
		for i := 0; i < 20; i++ {
			r.Offer([]float64{float64(i)})
		}
		for _, p := range r.Sample() {
			counts[int(p[0])]++
		}
	}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.25) > 0.04 {
			t.Errorf("element %d sampled with rate %v, want ~0.25", i, got)
		}
	}
}

// The reservoir must own the rows it keeps: a scan that decodes every
// chunk into one reused buffer overwrites each row it offered, and the
// sample must come out as if every row had been a fresh slice. The
// stream is long enough that replacements run after the fill, across
// more than one storage block.
func TestReservoirCopiesOfferedRows(t *testing.T) {
	const n, capacity, dim, chunk = 20000, 5000, 3, 64
	row := func(i int) []float64 { return []float64{float64(i), float64(-i), float64(i) / 7} }

	fresh := NewReservoir(capacity, rand.New(rand.NewSource(21)))
	for i := 0; i < n; i++ {
		fresh.Offer(row(i))
	}

	reused := NewReservoir(capacity, rand.New(rand.NewSource(21)))
	buf := make([][]float64, chunk)
	for i := range buf {
		buf[i] = make([]float64, dim)
	}
	for off := 0; off < n; off += chunk {
		for j := 0; j < chunk && off+j < n; j++ {
			copy(buf[j], row(off+j))
			reused.Offer(buf[j])
		}
		for j := range buf {
			for c := range buf[j] {
				buf[j][c] = math.NaN() // the caller reuses its buffer
			}
		}
	}

	want, got := fresh.Sample(), reused.Sample()
	if len(got) != len(want) {
		t.Fatalf("sample holds %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if math.Float64bits(got[i][c]) != math.Float64bits(want[i][c]) {
				t.Fatalf("row %d = %v after the caller overwrote its buffer, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestReservoirBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReservoir(0, rand.New(rand.NewSource(1)))
}

func BenchmarkGenerateTexture60Small(b *testing.B) {
	s := Texture60.Scaled(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Generate(rand.New(rand.NewSource(int64(i))))
	}
}

func BenchmarkFitKLT16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, 1000)
	for i := range pts {
		pts[i] = make([]float64, 16)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitKLT(pts); err != nil {
			b.Fatal(err)
		}
	}
}
