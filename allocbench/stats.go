package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail figure read off fewer samples is mostly noise.
const minTail = 10

// tail is one reported tail percentile with the evidence behind it.
type tail struct {
	Percentile float64 `json:"percentile"` // e.g. 99 for p99
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
}

// tailPercentile applies the reporting rule: the wanted percentile if at
// least minTail samples lie beyond it, otherwise the highest percentile
// that still leaves minTail samples beyond it. It fails below 2·minTail
// samples, where even the median would rest on too little.
func tailPercentile(n int, want float64) (float64, error) {
	if n < 2*minTail {
		return 0, fmt.Errorf("%d samples, need at least %d for a tail percentile", n, 2*minTail)
	}
	highest := 100 * (1 - float64(minTail)/float64(n))
	return math.Min(want, highest), nil
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailOf sorts xs in place and reports the wanted tail percentile under
// the minTail rule.
func tailOf(xs []float64, want float64) (tail, error) {
	p, err := tailPercentile(len(xs), want)
	if err != nil {
		return tail{}, err
	}
	sort.Float64s(xs)
	return tail{Percentile: p, Value: quantile(xs, p/100), Samples: len(xs)}, nil
}

// median returns the median of xs (xs is not modified); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// lowerQuartile returns the nearest-rank 25th percentile of xs (xs is
// not modified); NaN when empty.
func lowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.25)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
