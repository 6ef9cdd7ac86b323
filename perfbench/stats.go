package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 < q ≤ 1) of xs by the nearest-rank
// method, and how many samples lie strictly above that rank. The count is
// what makes a tail percentile trustworthy: a p99 with fewer than ten
// samples beyond it is one or two outliers, not a percentile. xs need not
// be sorted; it is not modified.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// seconds and millis convert durations to the float units the metrics use.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
