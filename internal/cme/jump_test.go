package cme

import (
	"math/rand/v2"
	"testing"
)

// scanWindow is the window problem by linear scan: the smallest t in
// [0, limit] with (x + t·d) mod m < w, or -1.
func scanWindow(x, d, m, w, limit int64) int64 {
	x &= m - 1
	d &= m - 1
	for t := int64(0); t <= limit; t++ {
		if (x+t*d)&(m-1) < w {
			return t
		}
	}
	return -1
}

// solve is the window problem for an unreduced offset x and step d per
// backward step (a stride of -d), through the solver the walk uses.
func solve(x, d, m, w, limit int64) int64 {
	s := newSetStride(-d, m, w)
	return s.first(x&(m-1), m, w, limit)
}

// TestFirstInWindowExhaustive checks the window solver against a
// linear scan for every offset, step and window of every modulus up to 64,
// at limits below, at and beyond the progression's period.
func TestFirstInWindowExhaustive(t *testing.T) {
	for m := int64(1); m <= 64; m *= 2 {
		for w := int64(1); w <= m; w *= 2 {
			for d := -m; d < m; d++ {
				for x := int64(0); x < m; x++ {
					for _, limit := range []int64{0, 1, 3, m - 1, 3 * m} {
						got := solve(x, d, m, w, limit)
						if want := scanWindow(x, d, m, w, limit); got != want {
							t.Fatalf("solve(x=%d, d=%d, m=%d, w=%d, limit=%d) = %d, scan %d",
								x, d, m, w, limit, got, want)
						}
					}
				}
			}
		}
	}
}

// TestFirstInWindowRandom checks the solver against a linear scan on
// random problems with moduli up to the solver's 2^31 bound: plain steps,
// odd multiples of small powers of two (the Euclid recursion) and odd
// multiples of a quarter window (the lattice shortcut).
func TestFirstInWindowRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 41))
	n := 20000
	if testing.Short() {
		n = 4000
	}
	var lattice, euclid int
	for i := 0; i < n; i++ {
		lm := r.IntN(32)
		m := int64(1) << lm
		w := int64(1) << r.IntN(min(8, lm+1))
		d := r.Int64N(2*m) - m
		switch r.Int64N(4) {
		case 0: // odd multiple of a small power of two
			d = (2*r.Int64N(1<<20) + 1) << r.Int64N(3)
		case 1: // odd multiple of a quarter window
			d = (2*r.Int64N(1<<20) + 1) * max(1, w/4)
		}
		x := r.Int64N(m)
		limit := r.Int64N(4096)
		if r.IntN(2) == 0 {
			// Plant a window hit within the limit, so a wrong answer on a
			// large modulus cannot hide behind "none within the limit".
			x = (r.Int64N(w) - r.Int64N(limit+1)*d) & (m - 1)
		}
		if newSetStride(-d, m, w).lattice {
			lattice++
		} else {
			euclid++
		}
		if got, want := solve(x, d, m, w, limit), scanWindow(x, d, m, w, limit); got != want {
			t.Fatalf("solve(x=%d, d=%d, m=%d, w=%d, limit=%d) = %d, scan %d",
				x, d, m, w, limit, got, want)
		}
	}
	if lattice == 0 || euclid == 0 {
		t.Errorf("solver paths not both reached: %d lattice, %d Euclid problems", lattice, euclid)
	}
}

// FuzzFirstInWindow checks the solver against a linear scan on arbitrary
// offsets, steps, moduli (2^0..2^31), windows and limits.
func FuzzFirstInWindow(f *testing.F) {
	f.Add(int64(100), int64(-8), uint8(13), uint8(5), uint16(500))
	f.Add(int64(7), int64(296), uint8(13), uint8(5), uint16(4000))
	f.Add(int64(4095), int64(4096), uint8(13), uint8(5), uint16(3))
	f.Add(int64(1), int64(37*4), uint8(10), uint8(7), uint16(60000))
	f.Fuzz(func(t *testing.T, x, d int64, log2m, log2w uint8, limit uint16) {
		lm := int(log2m % 32)
		m := int64(1) << lm
		w := int64(1) << (int(log2w) % (lm + 1))
		got := solve(x, d, m, w, int64(limit))
		if want := scanWindow(x, d, m, w, int64(limit)); got != want {
			t.Fatalf("solve(x=%d, d=%d, m=%d, w=%d, limit=%d) = %d, scan %d",
				x, d, m, w, limit, got, want)
		}
	})
}
