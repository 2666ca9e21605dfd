package iterspace

import "math/rand/v2"

// PermutedTiled is a tiled iteration space whose tile loops are
// interchanged into an arbitrary order — the general form of "tiling =
// strip-mining + loop interchange" (§3). Order[p] names the original
// dimension whose tile loop sits at outermost position p; the element
// loops always stay in original order innermost, so the transformation is
// always legal for the fully permutable nests the paper analyses.
//
// Coordinates are stored in EXECUTION order: (ii_{Order[0]}, ...,
// ii_{Order[k-1]}, i_1, ..., i_k), so lexicographic coordinate order is
// execution order, as every Space in this package guarantees.
type PermutedTiled struct {
	Box   *Box
	Tile  []int64 // indexed by original dimension
	Order []int   // Order[p] = original dimension at tile position p
	inv   []int   // inv[d] = tile position of original dimension d
}

// NewPermutedTiled builds the space. Order must be a permutation of
// 0..k-1; Tile is indexed by original dimension. It panics on malformed
// input (inputs come from validated genomes).
func NewPermutedTiled(box *Box, tile []int64, order []int) *PermutedTiled {
	k := len(box.Lo)
	if len(tile) != k || len(order) != k {
		panic("iterspace: permuted tiling rank mismatch")
	}
	inv := make([]int, k)
	seen := make([]bool, k)
	for p, d := range order {
		if d < 0 || d >= k || seen[d] {
			panic("iterspace: order is not a permutation")
		}
		seen[d] = true
		inv[d] = p
	}
	for d, t := range tile {
		if t < 1 || t > box.Extent(d) {
			panic("iterspace: tile size out of range")
		}
	}
	return &PermutedTiled{
		Box:   box,
		Tile:  append([]int64(nil), tile...),
		Order: append([]int(nil), order...),
		inv:   inv,
	}
}

func (t *PermutedTiled) k() int { return len(t.Box.Lo) }

// NumCoords implements Space.
func (t *PermutedTiled) NumCoords() int { return 2 * t.k() }

// OrigDims implements Space.
func (t *PermutedTiled) OrigDims() int { return t.k() }

func (t *PermutedTiled) tileStart(d int, v int64) int64 {
	lo := t.Box.Lo[d]
	return lo + (v-lo)/t.Tile[d]*t.Tile[d]
}

func (t *PermutedTiled) lastTileStart(d int) int64 { return t.tileStart(d, t.Box.Hi[d]) }

func (t *PermutedTiled) tileEnd(d int, ii int64) int64 {
	end := ii + t.Tile[d] - 1
	if hi := t.Box.Hi[d]; end > hi {
		end = hi
	}
	return end
}

// First implements Space.
func (t *PermutedTiled) First(p []int64) bool {
	k := t.k()
	for pos, d := range t.Order {
		p[pos] = t.Box.Lo[d]
	}
	for d := 0; d < k; d++ {
		p[k+d] = t.Box.Lo[d]
	}
	return true
}

// Next implements Space.
func (t *PermutedTiled) Next(p []int64) bool {
	k := t.k()
	// Element loops, innermost (original order) first.
	for d := k - 1; d >= 0; d-- {
		ii := p[t.inv[d]]
		if p[k+d] < t.tileEnd(d, ii) {
			p[k+d]++
			return true
		}
		p[k+d] = ii
	}
	// Tile loops, innermost tile position first.
	for pos := k - 1; pos >= 0; pos-- {
		d := t.Order[pos]
		if p[pos]+t.Tile[d] <= t.Box.Hi[d] {
			p[pos] += t.Tile[d]
			p[k+d] = p[pos]
			return true
		}
		p[pos] = t.Box.Lo[d]
		p[k+d] = p[pos]
	}
	return false
}

// Prev implements Space.
func (t *PermutedTiled) Prev(p []int64) bool {
	k := t.k()
	for d := k - 1; d >= 0; d-- {
		ii := p[t.inv[d]]
		if p[k+d] > ii {
			p[k+d]--
			return true
		}
		p[k+d] = t.tileEnd(d, ii)
	}
	for pos := k - 1; pos >= 0; pos-- {
		d := t.Order[pos]
		if p[pos] > t.Box.Lo[d] {
			p[pos] -= t.Tile[d]
			for e := pos + 1; e < k; e++ {
				de := t.Order[e]
				p[e] = t.lastTileStart(de)
			}
			// Reset element loops to the end of their (new) tiles.
			for e := 0; e < k; e++ {
				p[k+e] = t.tileEnd(e, p[t.inv[e]])
			}
			return true
		}
		p[pos] = t.lastTileStart(d)
		p[k+d] = t.tileEnd(d, p[pos])
	}
	return false
}

// InnerRun implements Space: the innermost element loop (always original
// dimension k-1) runs down to the start of its tile.
func (t *PermutedTiled) InnerRun(p []int64) int64 {
	k := t.k()
	return p[2*k-1] - p[t.inv[k-1]]
}

// Contains implements Space.
func (t *PermutedTiled) Contains(p []int64) bool {
	k := t.k()
	for pos, d := range t.Order {
		ii, i := p[pos], p[k+d]
		if ii < t.Box.Lo[d] || ii > t.Box.Hi[d] || (ii-t.Box.Lo[d])%t.Tile[d] != 0 {
			return false
		}
		if i < ii || i > t.tileEnd(d, ii) {
			return false
		}
	}
	return true
}

// Count implements Space.
func (t *PermutedTiled) Count() uint64 { return t.Box.Count() }

// Sample implements Space.
func (t *PermutedTiled) Sample(r *rand.Rand, p []int64) {
	k := t.k()
	for d := 0; d < k; d++ {
		v := t.Box.Lo[d] + r.Int64N(t.Box.Extent(d))
		p[k+d] = v
		p[t.inv[d]] = t.tileStart(d, v)
	}
}

// ToOriginal implements Space.
func (t *PermutedTiled) ToOriginal(p, orig []int64) { copy(orig, p[t.k():]) }

// OrigView implements Space.
func (t *PermutedTiled) OrigView(p []int64) []int64 { return p[t.k():] }

// OrigMap implements Space.
func (t *PermutedTiled) OrigMap() []int {
	k := t.k()
	m := make([]int, 2*k)
	for i := 0; i < k; i++ {
		m[i] = -1
		m[k+i] = i
	}
	return m
}

// FromOriginal implements Space.
func (t *PermutedTiled) FromOriginal(orig, p []int64) {
	k := t.k()
	for d := 0; d < k; d++ {
		p[k+d] = orig[d]
		p[t.inv[d]] = t.tileStart(d, orig[d])
	}
}

// MinWithPinned implements Space. As with Tiled, the candidate set is a
// product set and every coordinate is monotone in its original variable,
// so the coordinate-wise minimum is the lexicographic minimum.
func (t *PermutedTiled) MinWithPinned(pinned, p []int64) bool {
	k := t.k()
	for d := 0; d < k; d++ {
		var v int64
		switch {
		case pinned[d] == Free:
			v = t.Box.Lo[d]
		case pinned[d] < t.Box.Lo[d] || pinned[d] > t.Box.Hi[d]:
			return false
		default:
			v = pinned[d]
		}
		p[k+d] = v
		p[t.inv[d]] = t.tileStart(d, v)
	}
	return true
}
