package main

import (
	"fmt"
	"sort"
)

// Percentiles are written in basis points (1/100 of a percent) so the rank
// arithmetic stays in integers: 9000 is p90, 9900 is p99.
var tailLadder = []int{5000, 9000, 9900, 9990, 9999}

// minBeyond is how many samples must lie above a reported percentile for
// it to count as measured rather than extrapolated.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile bp among n
// sorted samples: the smallest r with r/n >= bp/10000.
func rank(n, bp int) int {
	r := (bp*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples strictly above the nearest-rank position of
// percentile bp among n samples.
func beyond(n, bp int) int { return n - rank(n, bp) }

// highestTail returns the highest percentile of the ladder with at least
// minBeyond samples beyond it among n samples, or 0 when n is too small
// for even the median to qualify.
func highestTail(n int) int {
	best := 0
	for _, bp := range tailLadder {
		if beyond(n, bp) >= minBeyond {
			best = bp
		}
	}
	return best
}

// minSamples is the smallest sample count with at least minBeyond
// samples beyond percentile bp.
func minSamples(bp int) int {
	n := 1
	for beyond(n, bp) < minBeyond {
		n++
	}
	return n
}

// sliceTail is the tail percentile bp of latencies given in completion
// order, made robust to stalls of the host rather than the program: the
// run is cut into at most maxSlices consecutive slices that each hold
// enough samples for the ten-beyond rule, and the median of the slices'
// percentiles is returned. With samples for fewer than two slices it is
// the percentile of the whole run.
func sliceTail(lat []float64, bp, maxSlices int) float64 {
	k := min(len(lat)/minSamples(bp), maxSlices)
	if k < 2 {
		return percentile(lat, bp)
	}
	tails := make([]float64, k)
	for i := range tails {
		tails[i] = percentile(lat[i*len(lat)/k:(i+1)*len(lat)/k], bp)
	}
	return median(tails)
}

// percentile returns the nearest-rank percentile bp of xs.
func percentile(xs []float64, bp int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), bp)-1]
}

// median is the middle value of xs (mean of the middle two for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// bpName renders a basis-point percentile as "p90", "p99.9".
func bpName(bp int) string {
	s := fmt.Sprintf("p%g", float64(bp)/100)
	return s
}
