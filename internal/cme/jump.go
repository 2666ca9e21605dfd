package cme

import "math/bits"

// The jump walk. Along one run of the innermost loop every reference's
// address is an arithmetic progression: j steps back from the walk point,
// reference r touches live[r] - j·c_r, where c_r is its coefficient on the
// last space coordinate. On a direct-mapped cache the first earlier access
// that maps to the target set decides the outcome (same line: hit; any
// other line: replacement miss), so instead of probing every (point, ref)
// pair the walk solves, per reference, for the first j whose address falls
// in the target set's byte window
//
//	(live[r] - j·c_r) mod span ∈ [set·line, set·line + line)
//
// and jumps to the earliest such access in reverse execution order, or
// across the whole run when no reference reaches the set. The window
// problem is the CME replacement condition restricted to one run. A
// Euclid-style recursion (minMulInRange) answers it exactly for every
// stride; strides whose 2-adic part is at least a quarter line (every
// innermost stride the catalog kernels showed on 8 KB / 32-byte-line
// caches) take a lattice shortcut, 5–12× cheaper where the recursion
// runs deep.

// maxJumpSpan bounds the cache way span (sets × line) the solver accepts,
// keeping every intermediate product of the Euclid recursion inside int64.
const maxJumpSpan = 1 << 31

// setStride is one reference's innermost-loop stride in the form the
// window solver consumes: successive backward steps add d (mod the span m)
// to the window-relative offset x, and the question is the first step at
// which x lands in [0, w), w being the line size.
type setStride struct {
	c int64 // address change per innermost-loop iteration
	d int64 // -c mod m: the offset change per backward step
	// lattice is set when d's 2-adic part g = 2^shift is at least a
	// quarter window; inv is then the inverse of d/g modulo 2^64.
	lattice bool
	shift   uint
	inv     uint64
}

// newSetStride prepares stride c for the window solver. m and w must be
// powers of two with w ≤ m ≤ maxJumpSpan.
func newSetStride(c, m, w int64) setStride {
	s := setStride{c: c, d: -c & (m - 1)}
	if g := s.d & -s.d; s.d != 0 && 4*g >= w {
		s.lattice = true
		s.shift = uint(bits.TrailingZeros64(uint64(g)))
		// Newton's iteration doubles the correct low bits each round:
		// an odd o is its own inverse mod 8, and five rounds reach 2^64.
		o := uint64(s.d >> s.shift)
		inv := o
		for i := 0; i < 5; i++ {
			inv *= 2 - o*inv
		}
		s.inv = inv
	}
	return s
}

// first returns the smallest t in [0, limit] with (x + t·d) mod m < w, or
// -1 when no such t exists. x must lie in [0, m), and m and w must be the
// values the stride was prepared with.
func (s *setStride) first(x, m, w, limit int64) int64 {
	if x < w {
		return 0
	}
	var t int64
	if s.lattice {
		// x + t·d ≡ xl + g·((xh + t·o) mod M) with M = m/g and o = d/g
		// odd: the window holds the residues y < ceil((w - xl)/g), at
		// most four (none when xl ≥ w), and residue y is reached at
		// t = (y - xh)·o⁻¹ mod M.
		g := int64(1) << s.shift
		xl, xh := x&(g-1), uint64(x>>s.shift)
		mmask := uint64(m>>s.shift) - 1
		k := uint64((w - xl + g - 1) >> s.shift)
		best := uint64(limit) + 1
		for y := uint64(0); y < k; y++ {
			if ty := ((y - xh) * s.inv) & mmask; ty < best {
				best = ty
			}
		}
		t = int64(best)
	} else {
		// x + t·d lands in the window iff (d·t) mod m ∈ [m-x, m-x+w-1].
		t = minMulInRange(s.d, m, m-x, m-x+w-1)
	}
	if t > limit {
		return -1
	}
	return t
}

// minMulInRange returns the smallest t ≥ 0 with l ≤ (a·t) mod m ≤ r, or -1
// when none exists. It requires 0 ≤ a < m, 0 ≤ l ≤ r < m and m ≤
// maxJumpSpan. Each level either answers without a wrap or reduces to the
// same question modulo a ≤ m/2, so the depth is O(log m).
func minMulInRange(a, m, l, r int64) int64 {
	if l == 0 {
		return 0
	}
	if a == 0 {
		return -1
	}
	if 2*a > m {
		// a·t mod m lies in [l, r] ⊂ [1, m) iff (m-a)·t mod m lies in
		// [m-r, m-l].
		return minMulInRange(m-a, m, m-r, m-l)
	}
	if k := (l + a - 1) / a; a*k <= r {
		return k
	}
	// No multiple of a lies in [l, r], so l and r share a block of a and
	// the answer wraps: find the fewest wraps y for which [l+m·y, r+m·y]
	// holds a multiple of a, i.e. (-m·y) mod a ∈ [l mod a, r mod a].
	y := minMulInRange((a-m%a)%a, a, l%a, r%a)
	if y < 0 {
		return -1
	}
	return (l + m*y + a - 1) / a
}

// bindStrides refreshes the per-reference innermost-loop strides after the
// space changed.
func (a *Analyzer) bindStrides() {
	if cap(a.strides) >= len(a.refs) {
		a.strides = a.strides[:len(a.refs)]
	} else {
		a.strides = make([]setStride, len(a.refs))
	}
	last := a.space.NumCoords() - 1
	span := a.nsets * a.cfg.LineSize
	for r := range a.refs {
		a.strides[r] = newSetStride(a.refs[r].coefCoord[last], span, a.cfg.LineSize)
	}
}

// canJump reports whether the run of the given length ahead of the walk
// point can be solved in closed form: the cache is direct-mapped within
// the solver's span bound, the target line is non-negative, and no
// reference touches a negative address along the run (cache.LineOf
// truncates toward zero there, which the modular window does not model).
func (a *Analyzer) canJump(line, run int64) bool {
	if !a.jumpOK || line < 0 {
		return false
	}
	for r, q := range a.liveAddr {
		if q < 0 || q-run*a.strides[r].c < 0 {
			return false
		}
	}
	return true
}

// jumpScan finds the earliest access, in reverse execution order, that
// maps to the target set within the run ahead of the walk point: refs
// first..0 at the walk point itself (j = 0), then every reference at each
// of the run's earlier points j = 1..run. It returns that access's
// reference and offset j, or ok=false when the run never reaches the set.
func (a *Analyzer) jumpScan(first int, run, set int64) (ref int, j int64, ok bool) {
	w := a.cfg.LineSize
	m := a.nsets * w
	lo := set * w
	ref, j = -1, run+1
	// Descending reference order: at equal j the larger reference probes
	// first, so a smaller one wins only with a strictly smaller j.
	for r := len(a.refs) - 1; r >= 0; r-- {
		jlo := int64(0)
		if r > first {
			jlo = 1
		}
		if jlo >= j {
			continue
		}
		s := &a.strides[r]
		x := (a.liveAddr[r] - jlo*s.c - lo) & (m - 1)
		if t := s.first(x, m, w, j-1-jlo); t >= 0 {
			ref, j = r, jlo+t
		}
	}
	return ref, j, ref >= 0
}

// probeScan is jumpScan by direct probing, access by access in reverse
// execution order, with exact div/mod for negative addresses.
func (a *Analyzer) probeScan(first int, run, set int64) (ref int, j int64, ok bool) {
	lineShift, setMask := a.lineShift, a.setMask
	lineSize, nsets := a.cfg.LineSize, a.nsets
	live := a.liveAddr
	ref = first
	for j = 0; j <= run; j++ {
		for ; ref >= 0; ref-- {
			q := live[ref] - j*a.strides[ref].c
			if q >= 0 {
				if (q>>lineShift)&setMask == set {
					return ref, j, true
				}
			} else if (q/lineSize)%nsets == set {
				return ref, j, true
			}
		}
		ref = len(live) - 1
	}
	return 0, 0, false
}

// skipRun moves the walk point to the start of its innermost run, run
// points earlier, updating the live addresses along the way.
func (a *Analyzer) skipRun(run int64) {
	last := len(a.walkPoint) - 1
	a.walkPoint[last] -= run
	for _, cr := range a.coordRefs[last] {
		a.liveAddr[cr.ref] -= cr.coef * run
	}
}
