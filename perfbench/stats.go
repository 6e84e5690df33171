package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the nearest-rank q-quantile (0 < q <= 1) of sorted: the
// smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailMinBeyond is how many samples must lie beyond the reported tail.
const tailMinBeyond = 10

// tail is a latency tail: the value at the highest percentile that still
// has tailMinBeyond samples beyond it, with the percentile and the sample
// counts recorded beside it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// tailOf picks the highest nearest-rank percentile with at least
// tailMinBeyond samples strictly beyond it: rank n−10, percentile
// 100·(n−10)/n. It never reports below the median: with fewer than 21
// samples the median is the tail and Beyond says how many lie past it.
func tailOf(sorted []float64) tail {
	n := len(sorted)
	if n == 0 {
		return tail{}
	}
	rank := n - tailMinBeyond
	if med := (n + 1) / 2; rank < med {
		rank = med
	}
	return tail{
		Value:      sorted[rank-1],
		Percentile: 100 * float64(rank) / float64(n),
		Samples:    n,
		Beyond:     n - rank,
	}
}

// seconds converts durations to sorted float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of unsorted values.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// mean is the arithmetic mean (0 for no values).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
