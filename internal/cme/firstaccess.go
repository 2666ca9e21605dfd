package cme

import (
	"repro/internal/ir"
	"repro/internal/iterspace"
)

// arrGroup is one array the nest references, with the references to it.
type arrGroup struct {
	arr  *ir.Array
	info *arrInfo
	refs []int
}

// arrInfo caches the layout data needed for allocation-free subscript
// inversion of one array.
type arrInfo struct {
	strides []int64
	order   []int // dimension indices by descending stride
	dims    []int64
	total   int64 // padded element count
}

func newArrInfo(a *ir.Array) *arrInfo {
	strides := a.Strides()
	order := make([]int, len(strides))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if strides[order[j]] > strides[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	total := a.SizeBytes() / a.Elem
	return &arrInfo{strides: strides, order: order, dims: a.Dims, total: total}
}

// delinearize inverts the element index into 1-based subscripts without
// allocating; it reports false for indices in padding or out of range.
func (ai *arrInfo) delinearize(idx int64, subs []int64) bool {
	if idx < 0 || idx >= ai.total {
		return false
	}
	for _, d := range ai.order {
		q := idx / ai.strides[d]
		idx -= q * ai.strides[d]
		if q >= ai.dims[d] {
			return false
		}
		subs[d] = q + 1
	}
	return true
}

// isFirstAccess reports whether the access by reference refIdx at space
// point p is the first access ever (in execution order) to the given
// memory line — i.e. a compulsory miss.
//
// The test is exact and runs in O(refs × elementsPerLine × dims): a cache
// line holds at most LineSize/Elem array elements; for each array and each
// such element we invert the element index to subscripts once, then, per
// reference to that array, invert the (single-variable) subscripts to the
// loop variables they pin and ask the space for the lexicographically
// earliest point with those pins. If any such point precedes p (or
// coincides with p at an earlier body reference), the line was touched
// before.
func (a *Analyzer) isFirstAccess(p []int64, refIdx int, line int64) bool {
	lineStart := line * a.cfg.LineSize
	lineEnd := lineStart + a.cfg.LineSize - 1

	for gi := range a.groups {
		g := &a.groups[gi]
		arr := g.arr
		b := arr.Base + arr.BasePad
		elem := arr.Elem

		// Element-index range of this array whose start byte lies in the
		// line.
		if lineEnd < b {
			continue
		}
		k0 := int64(0)
		if lineStart > b {
			k0 = (lineStart - b + elem - 1) / elem
		}
		k1 := (lineEnd - b) / elem
		subs := a.subsBuf[:len(arr.Dims)]
		for k := k0; k <= k1; k++ {
			if !g.info.delinearize(k, subs) {
				continue // index in padding or past the array
			}
			for _, rj := range g.refs {
				if !a.pinsFor(rj, subs) {
					continue // element unreachable by this reference
				}
				if !a.space.MinWithPinned(a.pinned, a.minPoint) {
					continue // pinned values outside the iteration space
				}
				switch iterspace.Compare(a.minPoint, p) {
				case -1:
					return false
				case 0:
					if rj < refIdx {
						return false
					}
				}
			}
		}
	}
	return true
}

// pinsFor computes, into a.pinned, the loop-variable values reference rj
// must take to touch the element with the given subscripts. It reports
// false when the element is unreachable (constant-subscript mismatch,
// non-integral solution, or conflicting pins).
func (a *Analyzer) pinsFor(rj int, subs []int64) bool {
	for v := range a.pinned {
		a.pinned[v] = iterspace.Free
	}
	for d, inv := range a.refs[rj].inv {
		if inv.varIdx < 0 {
			if subs[d] != inv.cst {
				return false
			}
			continue
		}
		num := subs[d] - inv.cst
		if num%inv.coef != 0 {
			return false
		}
		val := num / inv.coef
		if cur := a.pinned[inv.varIdx]; cur != iterspace.Free && cur != val {
			return false
		}
		a.pinned[inv.varIdx] = val
	}
	return true
}
