package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must leave above
// it: a p90 needs at least 100 samples, a p99 at least 1000.
const minBeyond = 10

// tailLadder is the set of percentiles a tail can be reported at, highest
// first. Tail picks the highest one the sample count supports; the rungs are
// far apart so that run-to-run variation in the op count rarely moves a
// workload from one rung to the next.
var tailLadder = []float64{99, 90, 75, 50}

// Quantile is one percentile of a sample set, with the sample count behind it.
type Quantile struct {
	P     float64 // percentile in (0, 100)
	Value float64
	N     int // samples
}

// Percentile returns the p-th percentile (nearest rank) of xs. It refuses a
// percentile with fewer than minBeyond samples above it, since such a figure
// is set by a handful of outliers.
func Percentile(xs []float64, p float64) (Quantile, error) {
	n := len(xs)
	if beyond := float64(n) * (100 - p) / 100; beyond < minBeyond {
		return Quantile{P: p, N: n}, fmt.Errorf("p%g of %d samples leaves %.1f beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return Quantile{P: p, Value: s[rank-1], N: n}, nil
}

// TailRung is the highest percentile of tailLadder that minN samples
// support. A workload reports its end-to-end tail at the rung of the sample
// count it guarantees, so the rung never changes between runs.
func TailRung(minN int) float64 {
	for _, p := range tailLadder {
		if float64(minN)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// Tail returns the highest percentile of tailLadder that Percentile accepts
// for xs; it fails when even the median is refused.
func Tail(xs []float64) (Quantile, error) {
	var err error
	for _, p := range tailLadder {
		var q Quantile
		if q, err = Percentile(xs, p); err == nil {
			return q, nil
		}
	}
	return Quantile{N: len(xs)}, err
}

// median is the lenient middle value used for per-layer figures, which carry
// no bound; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
