package main

import (
	"math"
	"sort"
)

// Summary is one reported metric: the median of its samples with the
// quartiles and the sample count beside it, so a reader can tell a
// difference between two reports from their own run-to-run spread.
type Summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// summarize reports the median and quartiles of samples.
func summarize(unit string, samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{Unit: unit}
	}
	s := sorted(samples)
	return Summary{Value: quantile(s, 0.5), Unit: unit, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// single is a metric measured once per run (a peak, a ratio of totals).
func single(unit string, v float64) Summary {
	return Summary{Value: v, Unit: unit, Q1: v, Q3: v, Min: v, Max: v, N: 1}
}

// spread is the interquartile distance as a share of the median.
func (s Summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics of a sorted
// sample (the "inclusive" method: q=0 is the minimum, q=1 the maximum).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// tailLadder lists the percentiles a latency tail may be reported at,
// each with the share of samples beyond it as "one in".
var tailLadder = []struct {
	p     float64
	oneIn int
}{{99.9, 1000}, {99, 100}, {95, 20}, {90, 10}, {75, 4}}

// tailPercentile picks the highest percentile that still has at least
// ten samples beyond it: a p99 read off 300 samples rests on three of
// them and does not repeat. Below forty samples only the median is left.
func tailPercentile(n int) float64 {
	for _, t := range tailLadder {
		if n >= 10*t.oneIn {
			return t.p
		}
	}
	return 50
}
