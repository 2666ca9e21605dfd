package main

import "testing"

// The reported tail is the highest ladder percentile with at least ten
// samples beyond it.
func TestHighestTailTenBeyondRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 0}, {10, 0}, {19, 0}, {20, 5000}, {99, 5000}, {100, 9000},
		{999, 9000}, {1000, 9900}, {9999, 9900}, {10000, 9990},
		{99999, 9990}, {100000, 9999}, {1000000, 9999},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// beyond must count exactly the samples above the reported percentile,
// and the highest qualifying rung must leave at least ten beyond it while
// the next rung up leaves fewer.
func TestBeyondMatchesSamples(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, unsorted
		}
		for _, bp := range tailLadder {
			p := percentile(xs, bp)
			above := 0
			for _, x := range xs {
				if x > p {
					above++
				}
			}
			if above != beyond(n, bp) {
				t.Fatalf("n=%d %s: %d samples above, beyond() says %d", n, bpName(bp), above, beyond(n, bp))
			}
			// Nearest rank: at least bp/10000 of the samples are <= p.
			if 10000*(n-above) < bp*n {
				t.Fatalf("n=%d %s: only %d of %d samples at or below", n, bpName(bp), n-above, n)
			}
		}
		best := highestTail(n)
		if best == 0 {
			continue
		}
		if beyond(n, best) < minBeyond {
			t.Fatalf("n=%d: %s has %d beyond", n, bpName(best), beyond(n, best))
		}
		for i, bp := range tailLadder {
			if bp == best && i+1 < len(tailLadder) && beyond(n, tailLadder[i+1]) >= minBeyond {
				t.Fatalf("n=%d: %s qualifies but %s was chosen", n, bpName(tailLadder[i+1]), bpName(best))
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 9000); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 5000); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := bpName(9990); got != "p99.9" {
		t.Errorf("bpName(9990) = %q", got)
	}
}

func TestSliceTail(t *testing.T) {
	if got := minSamples(9900); got != 1000 {
		t.Fatalf("minSamples(p99) = %d, want 1000", got)
	}
	if got := minSamples(9000); got != 100 {
		t.Fatalf("minSamples(p90) = %d, want 100", got)
	}
	// Too few samples for two slices: the whole-run percentile.
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := sliceTail(xs, 9000, 30); got != 135 {
		t.Errorf("sliceTail over one slice = %v, want 135", got)
	}
	// Four slices of 1000 samples; one of them stalls. The median of the
	// slice p99s ignores the stalled slice, the whole-run p99 does not.
	lat := make([]float64, 4000)
	for i := range lat {
		lat[i] = 1 + float64(i%1000)/1000
		if i >= 1000 && i < 2000 && i%16 == 0 {
			lat[i] = 100
		}
	}
	if got := sliceTail(lat, 9900, 30); got < 1.98 || got > 2 {
		t.Errorf("sliceTail = %v, want the unstalled p99 near 1.99", got)
	}
	if got := percentile(lat, 9900); got != 100 {
		t.Errorf("whole-run p99 = %v, want the stall", got)
	}
	// maxSlices caps the slice count.
	if got := sliceTail(lat, 9900, 1); got != 100 {
		t.Errorf("one slice = %v, want the whole-run p99", got)
	}
}
