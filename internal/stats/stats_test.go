package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperSampleSizeFootnote(t *testing.T) {
	// The paper: "2,000 fault injections per hardware structure, which
	// statistically provides 2.88% error margin for 99% confidence".
	m, err := MarginOfError(2000, 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Round(m*1e4) / 1e2; got != 2.88 {
		t.Fatalf("margin for n=2000 @99%% = %v%%, want 2.88%%", got)
	}
	// And inversely the planner should ask for ~2,000 injections.
	n, err := SampleSize(0, 0.0288, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1990 || n > 2010 {
		t.Fatalf("sample size for 2.88%% @99%% = %d, want ~2000", n)
	}
}

func TestZQuantiles(t *testing.T) {
	cases := []struct {
		conf, want float64
	}{{0.90, Z90}, {0.95, Z95}, {0.99, Z99}}
	for _, c := range cases {
		z, err := ZForConfidence(c.conf)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(z-c.want) > 1e-9 {
			t.Fatalf("z(%v) = %v, want %v", c.conf, z, c.want)
		}
	}
	if _, err := ZForConfidence(0); err == nil {
		t.Fatal("expected error for confidence 0")
	}
	if _, err := ZForConfidence(1); err == nil {
		t.Fatal("expected error for confidence 1")
	}
}

func TestFinitePopulationCorrection(t *testing.T) {
	inf, err := MarginOfError(500, 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := MarginOfError(500, 1000, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if fin >= inf {
		t.Fatalf("finite-population margin %v should be below infinite %v", fin, inf)
	}
	n, err := SampleSize(1000, 0.0288, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if n >= 1000 {
		t.Fatalf("finite-population sample %d should be below the population", n)
	}
}

func TestRNGDeterminismAndStreams(t *testing.T) {
	a := NewRNG(123)
	b := NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	s1 := NewRNG(1).Derive(7)
	s2 := NewRNG(1).Derive(8)
	same := true
	for i := 0; i < 16; i++ {
		if s1.Uint64() != s2.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("derived streams 7 and 8 are identical")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(99)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Coarse chi-square-ish check over 8 buckets.
	r := NewRNG(5)
	const buckets = 8
	const n = 80000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %v", b, c, want)
		}
	}
}

func TestWilsonIntervalProperties(t *testing.T) {
	if err := quick.Check(func(s uint16, tr uint16) bool {
		trials := int(tr%1000) + 1
		succ := int(s) % (trials + 1)
		p := Proportion{Successes: succ, Trials: trials}
		lo, hi, err := p.Interval(0.99)
		if err != nil {
			return false
		}
		v := p.Value()
		return lo >= 0 && hi <= 1 && lo <= v && v <= hi
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalNarrowsWithN(t *testing.T) {
	small := Proportion{Successes: 5, Trials: 50}
	big := Proportion{Successes: 100, Trials: 1000}
	slo, shi, _ := small.Interval(0.99)
	blo, bhi, _ := big.Interval(0.99)
	if bhi-blo >= shi-slo {
		t.Fatalf("interval did not narrow: small %v, big %v", shi-slo, bhi-blo)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := PearsonCorrelation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation gave r=%v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = PearsonCorrelation(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anti-correlation gave r=%v", r)
	}
	if _, err := PearsonCorrelation(xs, ys[:3]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := PearsonCorrelation([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("zero-variance series accepted")
	}
}

func TestNormQuantileAccuracy(t *testing.T) {
	// Spot values from standard tables.
	cases := map[float64]float64{
		0.975: 1.959963984540054,
		0.995: 2.5758293035489004,
		0.5:   0,
		0.9:   1.2815515655446004,
	}
	for p, want := range cases {
		if got := normQuantile(p); math.Abs(got-want) > 1e-9 {
			t.Fatalf("normQuantile(%v) = %v, want %v", p, got, want)
		}
	}
}
