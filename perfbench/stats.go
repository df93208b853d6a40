package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest value with at least q·n values at or below it. xs need not be
// sorted and is not modified. An empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the nearest-rank 0.5 quantile, so it is always one of the
// measured values.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// medianOf returns the median of field over the records.
func medianOf[T any](recs []T, field func(T) float64) float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = field(r)
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func mb(b uint64) float64        { return float64(b) / (1 << 20) }

// worldSeed maps a workload seed plus a step along its sequence onto the
// pool of world seeds 1..pool that the expected outputs cover.
func worldSeed(seed int64, step, pool int) int64 {
	m := (seed + int64(step)) % int64(pool)
	if m < 0 {
		m += int64(pool)
	}
	return 1 + m
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
