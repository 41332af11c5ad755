package stats

import (
	"errors"
	"fmt"
	"math"
)

// Common two-sided confidence levels and the corresponding standard-normal
// quantiles z_{1-alpha/2}.
const (
	Z90 = 1.6448536269514722
	Z95 = 1.959963984540054
	Z99 = 2.5758293035489004
)

// ZForConfidence returns the two-sided standard-normal quantile for a
// confidence level in (0,1), e.g. 0.99 -> 2.5758.
func ZForConfidence(confidence float64) (float64, error) {
	if confidence <= 0 || confidence >= 1 {
		return 0, fmt.Errorf("stats: confidence %v outside (0,1)", confidence)
	}
	return normQuantile(0.5 + confidence/2), nil
}

// normQuantile computes the standard normal quantile via the
// Beasley-Springer-Moro / Acklam rational approximation (abs err < 1.2e-9),
// refined with one Halley step using the complementary error function.
func normQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// SampleSize returns the number of statistical fault-injection experiments
// needed for the requested error margin at the requested confidence level,
// for a population of N possible (bit, cycle) fault sites, using the
// finite-population formula of Leveugle et al. (DATE 2009) that GUFI/SIFI
// use:
//
//	n = N / (1 + e^2 * (N-1) / (z^2 * p*(1-p)))
//
// with the worst-case p = 0.5. population <= 0 means an infinite
// population.
func SampleSize(population int64, margin, confidence float64) (int, error) {
	if margin <= 0 || margin >= 1 {
		return 0, fmt.Errorf("stats: margin %v outside (0,1)", margin)
	}
	z, err := ZForConfidence(confidence)
	if err != nil {
		return 0, err
	}
	const p = 0.5
	n0 := z * z * p * (1 - p) / (margin * margin)
	if population <= 0 {
		return int(math.Ceil(n0)), nil
	}
	N := float64(population)
	n := N / (1 + margin*margin*(N-1)/(z*z*p*(1-p)))
	return int(math.Ceil(n)), nil
}

// MarginOfError returns the worst-case (p = 0.5) two-sided error margin for
// n fault-injection experiments drawn from a population of N fault sites at
// the given confidence. This reproduces the paper's footnote: 2,000
// injections give a 2.88% margin at 99% confidence for large N.
func MarginOfError(n int, population int64, confidence float64) (float64, error) {
	if n <= 0 {
		return 0, errors.New("stats: non-positive sample size")
	}
	z, err := ZForConfidence(confidence)
	if err != nil {
		return 0, err
	}
	const p = 0.5
	e := z * math.Sqrt(p*(1-p)/float64(n))
	if population > 0 && int64(n) < population {
		fpc := math.Sqrt(float64(population-int64(n)) / float64(population-1))
		e *= fpc
	}
	return e, nil
}

// Proportion is an observed binomial proportion with its sample size,
// e.g. the fraction of non-masked fault injections.
type Proportion struct {
	Successes int
	Trials    int
}

// Value returns the point estimate, or 0 for an empty sample.
func (p Proportion) Value() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Interval returns the Wilson score interval at the given confidence.
// Wilson is preferred over the normal approximation because campaign AVFs
// can sit very close to 0 or 1.
func (p Proportion) Interval(confidence float64) (lo, hi float64, err error) {
	if p.Trials == 0 {
		return 0, 0, errors.New("stats: empty sample")
	}
	z, err := ZForConfidence(confidence)
	if err != nil {
		return 0, 0, err
	}
	n := float64(p.Trials)
	phat := p.Value()
	denom := 1 + z*z/n
	center := (phat + z*z/(2*n)) / denom
	half := z * math.Sqrt(phat*(1-phat)/n+z*z/(4*n*n)) / denom
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	// The Wilson interval contains the point estimate by construction,
	// but at phat = 0 or 1 the float evaluation of center ± half can
	// land one ulp inside it; clamp so callers can rely on lo <= phat <= hi.
	if lo > phat {
		lo = phat
	}
	if hi < phat {
		hi = phat
	}
	return lo, hi, nil
}

// HalfWidth returns half the width of the Wilson score interval at the
// given confidence — the quantity an adaptive fault-injection campaign
// drives below its requested error margin before stopping.
func (p Proportion) HalfWidth(confidence float64) (float64, error) {
	lo, hi, err := p.Interval(confidence)
	if err != nil {
		return 0, err
	}
	return (hi - lo) / 2, nil
}

// PearsonCorrelation returns the linear correlation coefficient of two
// equal-length series. It is used to quantify the paper's AVF-vs-occupancy
// correlation claim. Returns an error on mismatched or too-short input.
func PearsonCorrelation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: series length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, errors.New("stats: need at least 2 points")
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	n := float64(len(xs))
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance series")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
