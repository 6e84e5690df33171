package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.5, 5}, {0.1, 1}, {0.11, 2}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.001, 1},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile(single) = %v, want 7", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n          int
		value      float64
		percentile float64
		beyond     int
	}{
		{1000, 990, 99, 10},
		{30, 20, 100 * 20.0 / 30, 10},
		{21, 11, 100 * 11.0 / 21, 10},
		// Below 21 samples the median is reported, with fewer beyond it.
		{20, 10, 50, 10},
		{12, 6, 50, 6},
		{1, 1, 100, 0},
	} {
		got := tailOf(sorted(c.n))
		if got.Value != c.value || math.Abs(got.Percentile-c.percentile) > 1e-9 ||
			got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("tailOf(1..%d) = %+v, want value %v at p%v with %d beyond",
				c.n, got, c.value, c.percentile, c.beyond)
		}
		// The chosen rank is the highest one keeping 10 samples beyond:
		// one rank higher would leave only 9.
		if c.n >= 21 && c.n-int(got.Value)-1 >= tailMinBeyond {
			t.Errorf("tailOf(1..%d) is not the highest percentile with %d beyond", c.n, tailMinBeyond)
		}
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("tailOf(empty) = %+v", got)
	}
}
