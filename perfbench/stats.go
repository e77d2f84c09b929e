package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

func sortedDurations(ds []time.Duration) []time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s
}

// rank is the 1-based nearest-rank position of quantile q among n samples.
func rank(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n))))
}

// quantile is the nearest-rank q-quantile of sorted samples; 0 if none.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(rank(len(sorted), q), len(sorted))-1]
}

// beyond is how many of n samples lie beyond the q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

func medianDuration(ds []time.Duration) time.Duration {
	f := make([]float64, len(ds))
	for i, d := range ds {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func tailName(q float64) string { return fmt.Sprintf("p%g", q*100) }
