// Package cme implements Cache Miss Equations (Ghosh, Martonosi & Malik)
// as used by the paper: an exact analytical model of cache behaviour for
// perfectly nested affine loops.
//
// The package has two layers:
//
//   - The point solver (this file): the paper's "traversing the iteration
//     space" solution method (§2.2–2.3). For one iteration point and one
//     reference it decides hit / compulsory miss / replacement miss exactly
//     for a k-way LRU cache by walking the accesses before it in reverse
//     execution order, expected O(assoc·sets/refs) of them, independent of
//     problem size. On a direct-mapped cache the walk does not visit those
//     accesses one by one: it solves each reference's next access to the
//     target set in closed form along the innermost loop (jump.go), so it
//     pays O(refs) per innermost run it crosses. Combined with simple
//     random sampling (internal/sampling) this is the fast CME solver the
//     paper builds.
//
//   - The symbolic equation generator (gen.go): the diophantine
//     equalities/inequalities themselves — compulsory and replacement
//     equations per reference × reuse vector × convex region (§2.1, §2.4) —
//     materialised as polyhedra for inspection, reporting and the ×n / ×n²
//     region-count accounting.
//
// The point solver is validated access-for-access against the trace-driven
// simulator (internal/cachesim) in this package's tests, and the optimized
// interference walk is validated outcome-for-outcome against the retained
// reference walk (ClassifyReference) over randomized kernels.
package cme

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/ir"
	"repro/internal/iterspace"
)

// refInfo is the precomputed address function of one reference:
// addr(v) = base + Σ coef[d]·v[d] over original loop variables, in bytes.
// coefCoord is the same function re-expressed over the SPACE COORDINATES
// (zero for tile coordinates), so the interference walk evaluates
// addresses directly on space points without extracting original
// variables.
type refInfo struct {
	base      int64
	coef      []int64
	coefCoord []int64
	// inv[d] describes how to recover original variable values from array
	// subscripts (see firstaccess.go).
	inv []subInv
}

// subInv is the inversion info of one array subscript of the form
// coef·v_var + cst (or a constant when var < 0).
type subInv struct {
	varIdx int // original variable index, -1 for constant subscripts
	coef   int64
	cst    int64
}

// coordRef links one space coordinate to a reference whose address depends
// on it — the transpose of the nonzero coefCoord entries. The interference
// walk applies coef·Δcoord to the reference's live address whenever the
// coordinate changes, so one backward step costs O(changed coordinates)
// instead of O(references × coordinates).
type coordRef struct {
	ref  int
	coef int64
}

// Analyzer decides per-access cache outcomes for a loop nest traversed in
// the order of a given iteration space. The nest's references must use
// subscripts of the form c or ±a·v + c (single loop variable per
// subscript), which covers every kernel in the paper's Table 1.
//
// An Analyzer is not safe for concurrent use; Clone one per goroutine.
// Rebind repoints an analyzer at a new traversal space without
// reallocating, which is how the search evaluators recycle analyzers
// across GA candidates.
type Analyzer struct {
	nest  *ir.Nest
	space iterspace.Space
	cfg   cache.Config
	nsets int64 // cfg.NumSets(), hoisted off the walk's hot path
	// lineShift/setMask exploit the validated power-of-two geometry:
	// for non-negative addresses addr>>lineShift == addr/LineSize and
	// ql&setMask == ql%NumSets exactly, so the walk's inner loop avoids
	// two integer divisions per probe. Negative addresses (possible only
	// with exotic array bases) take the exact div/mod path instead.
	lineShift uint
	setMask   int64

	refs []refInfo
	// groups lists each referenced array once, in first-use order, with
	// the references to it (see isFirstAccess).
	groups []arrGroup
	// coordRefs[c] lists the references whose address depends on space
	// coordinate c (rebuilt on every Rebind).
	coordRefs [][]coordRef
	// strides[r] is reference r's innermost-loop stride, prepared for the
	// jump walk's window solver (rebuilt on every Rebind). jumpOK enables
	// the jump: the cache is direct-mapped and its span fits the solver.
	strides []setStride
	jumpOK  bool

	// Scratch buffers.
	walkPoint []int64
	prevPoint []int64
	liveAddr  []int64 // per-reference address at walkPoint
	conflicts []int64
	pinned    []int64
	minPoint  []int64
	subsBuf   []int64
	walkCap   uint64
	capHits   uint64

	// Walk-cost accounting: total backward-walk steps and classified
	// accesses, for verifying the expected O(assoc·sets/refs) bound.
	walkSteps  uint64
	classified uint64

	// workers caches the per-goroutine clones WorkerPool hands out, so a
	// search's repeated parallel evaluations reuse the same clones
	// (rebound per space) instead of re-cloning every call. pointBuf is
	// the caller-side point scratch PointScratch returns. Neither is
	// inherited by clones.
	workers  []*Analyzer
	pointBuf []int64
}

// DefaultWalkCap bounds the backward interference walk as a safety net; it
// is high enough that no kernel in the suite reaches it with a resolvable
// reuse, and the analyzer falls back to classifying the access as a
// replacement miss when it trips (recorded in CapHits).
const DefaultWalkCap = 1 << 22

// NewAnalyzer builds an analyzer for nest traversed in space order under
// the cache configuration cfg. The nest must be the ORIGINAL nest (its
// references written over original loop variables); space supplies the
// (possibly tiled) traversal order.
func NewAnalyzer(nest *ir.Nest, space iterspace.Space, cfg cache.Config) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := nest.Validate(); err != nil {
		return nil, err
	}
	a := &Analyzer{
		nest:      nest,
		cfg:       cfg,
		nsets:     cfg.NumSets(),
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		setMask:   cfg.NumSets() - 1,
		refs:      make([]refInfo, len(nest.Refs)),
		conflicts: make([]int64, 0, cfg.Assoc),
		pinned:    make([]int64, nest.Depth()),
		walkCap:   DefaultWalkCap,
		jumpOK:    cfg.Assoc == 1 && cfg.NumSets()*cfg.LineSize <= maxJumpSpan,
	}
	a.groups = make([]arrGroup, 0, len(nest.Refs))
	maxRank := 0
	for i := range nest.Refs {
		ri, err := buildRefInfo(&nest.Refs[i], nest.Depth())
		if err != nil {
			return nil, fmt.Errorf("cme: ref %d (%s): %w", i, nest.Refs[i].String(), err)
		}
		a.refs[i] = ri
		arr := nest.Refs[i].Array
		if !slices.ContainsFunc(a.groups, func(g arrGroup) bool { return g.arr == arr }) {
			a.groups = append(a.groups, arrGroup{arr: arr, info: newArrInfo(arr)})
		}
		if r := arr.Rank(); r > maxRank {
			maxRank = r
		}
	}
	// Each group's references, laid out back to back in one slice.
	members := make([]int, 0, len(nest.Refs))
	for g := range a.groups {
		start := len(members)
		for i := range nest.Refs {
			if nest.Refs[i].Array == a.groups[g].arr {
				members = append(members, i)
			}
		}
		a.groups[g].refs = members[start:len(members):len(members)]
	}
	a.subsBuf = make([]int64, maxRank)
	if err := a.bindSpace(space); err != nil {
		return nil, err
	}
	return a, nil
}

// bindSpace points the analyzer at a traversal space, (re)building every
// space-dependent structure: the per-coordinate address coefficients, their
// transpose used by the incremental walk, and the point-sized scratch
// buffers. Existing buffers are reused whenever they are large enough, so
// rebinding an analyzer between same-shape spaces allocates nothing.
func (a *Analyzer) bindSpace(space iterspace.Space) error {
	if space.OrigDims() != a.nest.Depth() {
		return fmt.Errorf("cme: space has %d original dims, nest depth %d", space.OrigDims(), a.nest.Depth())
	}
	a.space = space
	nc := space.NumCoords()
	a.walkPoint = resizeInt64(a.walkPoint, nc)
	a.prevPoint = resizeInt64(a.prevPoint, nc)
	a.minPoint = resizeInt64(a.minPoint, nc)
	a.liveAddr = resizeInt64(a.liveAddr, len(a.refs))
	if cap(a.coordRefs) >= nc {
		a.coordRefs = a.coordRefs[:nc]
	} else {
		a.coordRefs = make([][]coordRef, nc)
	}
	for c := range a.coordRefs {
		a.coordRefs[c] = a.coordRefs[c][:0]
	}
	origMap := space.OrigMap()
	for i := range a.refs {
		ri := &a.refs[i]
		ri.coefCoord = resizeInt64(ri.coefCoord, nc)
		for c := range ri.coefCoord {
			ri.coefCoord[c] = 0
		}
		for c, d := range origMap {
			if d >= 0 {
				ri.coefCoord[c] = ri.coef[d]
			}
		}
		for c, co := range ri.coefCoord {
			if co != 0 {
				a.coordRefs[c] = append(a.coordRefs[c], coordRef{ref: i, coef: co})
			}
		}
	}
	a.bindStrides()
	return nil
}

// resizeInt64 returns a slice of length n, reusing s's backing array when
// it is large enough.
func resizeInt64(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}

// Rebind repoints the analyzer at a new traversal space over the same nest
// and cache configuration, reusing every internal buffer — the
// allocation-free path search evaluators use to recycle analyzers across
// candidate tilings instead of paying NewAnalyzer per evaluation. The
// walk accounting (WalkStats, CapHits) restarts from zero.
func (a *Analyzer) Rebind(space iterspace.Space) error {
	if err := a.bindSpace(space); err != nil {
		return err
	}
	a.walkSteps, a.classified, a.capHits = 0, 0, 0
	return nil
}

// Clone returns an independent analyzer sharing the immutable nest/space.
// The clone's accounting (WalkStats, CapHits) starts at zero: counters
// describe the work an analyzer itself performed, so per-worker clones
// aggregate without double-counting the parent's history.
func (a *Analyzer) Clone() *Analyzer {
	out := *a
	// Space-independent immutable state (nest, array groups, each ref's
	// coef and inv) is shared; every mutable buffer is re-created so the
	// clone is fully independent of the parent, including under a later
	// Rebind of either.
	out.refs = make([]refInfo, len(a.refs))
	copy(out.refs, a.refs)
	for i := range out.refs {
		out.refs[i].coefCoord = nil
	}
	out.conflicts = make([]int64, 0, cap(a.conflicts))
	out.pinned = make([]int64, len(a.pinned))
	out.subsBuf = make([]int64, len(a.subsBuf))
	out.walkPoint, out.prevPoint, out.minPoint, out.liveAddr = nil, nil, nil, nil
	out.coordRefs, out.strides = nil, nil
	out.workers, out.pointBuf = nil, nil
	if err := out.bindSpace(a.space); err != nil {
		// a.space was accepted when the parent bound it.
		panic("cme: clone rebind failed: " + err.Error())
	}
	out.walkSteps, out.classified, out.capHits = 0, 0, 0
	return &out
}

// WorkerPool returns n analyzers over a's nest and space — a itself plus
// n-1 cached clones — for one parallel evaluation (one analyzer per
// goroutine). The clones persist on a across calls: the first call pays
// Clone, later calls only Rebind clones whose space drifted from a's
// (Rebind after a pool call repoints only a, not the cached clones), so
// a search's steady state evaluates with zero clone allocations. The
// returned slice is valid until the next WorkerPool call.
func (a *Analyzer) WorkerPool(n int) []*Analyzer {
	if n < 1 {
		n = 1
	}
	if a.workers == nil {
		a.workers = make([]*Analyzer, 1, n)
		a.workers[0] = a
	}
	for len(a.workers) < n {
		a.workers = append(a.workers, a.Clone())
	}
	pool := a.workers[:n]
	for _, w := range pool[1:] {
		if w.space != a.space {
			if err := w.Rebind(a.space); err != nil {
				// a.space was accepted when a bound it.
				panic("cme: worker rebind failed: " + err.Error())
			}
		}
	}
	return pool
}

// PointScratch returns a caller-owned scratch point sized to the bound
// space's coordinate count, reused across calls. Classification loops use
// it to translate sampled points without a per-batch allocation; it is
// independent of the walk's internal buffers.
func (a *Analyzer) PointScratch() []int64 {
	a.pointBuf = resizeInt64(a.pointBuf, a.space.NumCoords())
	return a.pointBuf
}

// Space returns the traversal space.
func (a *Analyzer) Space() iterspace.Space { return a.space }

// Nest returns the analyzed nest.
func (a *Analyzer) Nest() *ir.Nest { return a.nest }

// Config returns the cache configuration.
func (a *Analyzer) Config() cache.Config { return a.cfg }

// CapHits reports how many classifications tripped the walk cap (0 in all
// normal operation).
func (a *Analyzer) CapHits() uint64 { return a.capHits }

// WalkStats reports the cumulative backward-walk steps and the number of
// classified accesses — the empirical cost of the point solver. The
// expected steps per access is O(assoc · sets / references-per-iteration),
// independent of problem size (checked in tests).
func (a *Analyzer) WalkStats() (steps, accesses uint64) {
	return a.walkSteps, a.classified
}

// WalkCounts is the WalkStats/CapHits triple as a value, so callers can
// snapshot an analyzer before and after a batch and report the delta even
// when Rebind (which zeroes the accounting) happens in between.
type WalkCounts struct {
	Steps      uint64
	Classified uint64
	CapHits    uint64
}

// WalkCounts returns the analyzer's cumulative walk accounting.
func (a *Analyzer) WalkCounts() WalkCounts {
	return WalkCounts{Steps: a.walkSteps, Classified: a.classified, CapHits: a.capHits}
}

// Plus returns the fieldwise sum w + o.
func (w WalkCounts) Plus(o WalkCounts) WalkCounts {
	return WalkCounts{w.Steps + o.Steps, w.Classified + o.Classified, w.CapHits + o.CapHits}
}

// Sub returns the fieldwise difference w - o (a delta since a snapshot).
func (w WalkCounts) Sub(o WalkCounts) WalkCounts {
	return WalkCounts{w.Steps - o.Steps, w.Classified - o.Classified, w.CapHits - o.CapHits}
}

func buildRefInfo(r *ir.Ref, depth int) (refInfo, error) {
	strides := r.Array.Strides()
	info := refInfo{
		base: r.Array.Base + r.Array.BasePad,
		coef: make([]int64, depth),
		inv:  make([]subInv, len(r.Subs)),
	}
	for d, sub := range r.Subs {
		idx, coef, single := sub.SingleVar()
		switch {
		case sub.IsConst():
			info.inv[d] = subInv{varIdx: -1, cst: sub.Const}
		case single:
			info.inv[d] = subInv{varIdx: idx, coef: coef, cst: sub.Const}
		default:
			return refInfo{}, fmt.Errorf("subscript %d is multi-variable (%s); not supported", d, sub)
		}
		info.base += (sub.Const - 1) * strides[d] * r.Array.Elem
		for v := 0; v < depth; v++ {
			info.coef[v] += sub.Coeff(v) * strides[d] * r.Array.Elem
		}
	}
	return info, nil
}

// addrAt computes the byte address reference refIdx touches at the given
// space point.
func (a *Analyzer) addrAt(point []int64, refIdx int) int64 {
	ri := &a.refs[refIdx]
	addr := ri.base
	for c, co := range ri.coefCoord {
		if co != 0 {
			addr += co * point[c]
		}
	}
	return addr
}

// Classify decides the outcome of the access performed by reference refIdx
// at space point p. It is exact for LRU caches of the configured geometry.
func (a *Analyzer) Classify(p []int64, refIdx int) cachesim.Outcome {
	a.classified++
	addr := a.addrAt(p, refIdx)
	line := a.cfg.LineOf(addr)

	if a.isFirstAccess(p, refIdx, line) {
		return cachesim.CompulsoryMiss
	}
	if a.cfg.Assoc == 1 {
		return a.walkDirect(p, refIdx, line)
	}
	return a.walkAssoc(p, refIdx, line)
}

// startWalk primes the backward interference walk at p: walkPoint holds
// the current point and liveAddr the address every reference touches
// there. From here stepBack maintains the addresses incrementally.
func (a *Analyzer) startWalk(p []int64) {
	copy(a.walkPoint, p)
	for r := range a.refs {
		a.liveAddr[r] = a.addrAt(p, r)
	}
}

// stepBack moves the walk one iteration point earlier and updates the live
// addresses incrementally: space.Prev typically changes one or two
// coordinates, and only the references depending on a changed coordinate
// are touched — O(changed coords) work instead of recomputing every
// reference's full affine address.
func (a *Analyzer) stepBack() bool {
	cur := a.walkPoint
	copy(a.prevPoint, cur)
	if !a.space.Prev(cur) {
		return false
	}
	for c, v := range cur {
		if d := v - a.prevPoint[c]; d != 0 {
			for _, cr := range a.coordRefs[c] {
				a.liveAddr[cr.ref] += cr.coef * d
			}
		}
	}
	return true
}

// walkDirect is the direct-mapped (assoc = 1) backward interference walk:
// with a single way per set, the first earlier access landing in the
// target set decides the outcome — the same line is a hit, any other line
// evicted it. The walk crosses one innermost-loop run at a time: jumpScan
// solves each reference's first access to the target set in the run in
// closed form (probeScan probes runs touching negative addresses
// instead), and a run with no such access is skipped whole.
//
// The accounting is the per-access walk's: steps counts every access
// passed over before the deciding one, and the cap fires exactly when
// that count reaches walkCap, so WalkStats and CapHits match
// ClassifyReference.
func (a *Analyzer) walkDirect(p []int64, refIdx int, line int64) cachesim.Outcome {
	set := a.cfg.SetOfLine(line)
	a.startWalk(p)
	capAt := max(a.walkCap, 1)
	nrefs := len(a.refs)
	first := refIdx - 1 // highest reference still to visit at the walk point
	var steps uint64
	for {
		run := a.space.InnerRun(a.walkPoint)
		var ref int
		var j int64
		var found bool
		if a.canJump(line, run) {
			ref, j, found = a.jumpScan(first, run, set)
		} else {
			ref, j, found = a.probeScan(first, run, set)
		}
		if found {
			// Accesses passed over before (j, ref): refs first..ref+1 at
			// the walk point, or all of the walk point's first+1, then
			// j-1 whole points, then refs nrefs-1..ref+1 at point j.
			passed := uint64(first - ref)
			if j > 0 {
				passed = uint64(first+1) + uint64(j-1)*uint64(nrefs) + uint64(nrefs-1-ref)
			}
			if steps+passed >= capAt {
				a.walkSteps += capAt
				a.capHits++
				return cachesim.ReplacementMiss
			}
			a.walkSteps += steps + passed
			if a.cfg.LineOf(a.liveAddr[ref]-j*a.strides[ref].c) == line {
				return cachesim.Hit
			}
			return cachesim.ReplacementMiss
		}
		steps += uint64(first+1) + uint64(run)*uint64(nrefs)
		if steps >= capAt {
			a.walkSteps += capAt
			a.capHits++
			return cachesim.ReplacementMiss
		}
		a.skipRun(run)
		if !a.stepBack() {
			// No earlier access to the line exists, contradicting the
			// first-access test: unreachable by construction.
			panic("cme: walked past the start of a non-compulsory access")
		}
		first = nrefs - 1
	}
}

// walkAssoc is the k-way walk: scan accesses in reverse execution order
// until we meet the previous access to this line. The line is still
// resident iff fewer than `assoc` distinct other lines mapping to the same
// set were touched in between (the LRU stack property). Addresses come
// from the incrementally maintained liveAddr.
func (a *Analyzer) walkAssoc(p []int64, refIdx int, line int64) cachesim.Outcome {
	set := a.cfg.SetOfLine(line)
	a.startWalk(p)
	conflicts := a.conflicts[:0]
	lineSize, nsets := a.cfg.LineSize, a.nsets
	lineShift, setMask := a.lineShift, a.setMask
	live := a.liveAddr
	walkCap := a.walkCap
	assoc := a.cfg.Assoc
	ref := refIdx
	var steps uint64
	for {
		ref--
		if ref < 0 {
			if !a.stepBack() {
				panic("cme: walked past the start of a non-compulsory access")
			}
			ref = len(a.refs) - 1
		}
		var ql int64
		var sameSet bool
		if q := live[ref]; q >= 0 {
			ql = q >> lineShift
			sameSet = ql&setMask == set
		} else {
			ql = q / lineSize
			sameSet = ql%nsets == set
		}
		if ql == line {
			a.walkSteps += steps
			if len(conflicts) < assoc {
				return cachesim.Hit
			}
			return cachesim.ReplacementMiss
		}
		if sameSet {
			known := false
			for _, c := range conflicts {
				if c == ql {
					known = true
					break
				}
			}
			if !known {
				conflicts = append(conflicts, ql)
				if len(conflicts) >= assoc {
					a.walkSteps += steps
					return cachesim.ReplacementMiss
				}
			}
		}
		steps++
		if steps >= walkCap {
			a.walkSteps += steps
			a.capHits++
			return cachesim.ReplacementMiss
		}
	}
}

// ClassifyReference is the retained pre-optimization interference walk: it
// recomputes every reference's full affine address at every backward step
// instead of maintaining live addresses incrementally, and runs the
// general k-way path even for direct-mapped caches. It classifies exactly
// like Classify and exists as the behavioural oracle for the differential
// tests and the BenchmarkClassify baseline; production paths always use
// Classify.
func (a *Analyzer) ClassifyReference(p []int64, refIdx int) cachesim.Outcome {
	a.classified++
	addr := a.addrAt(p, refIdx)
	line := a.cfg.LineOf(addr)
	set := a.cfg.SetOfLine(line)

	if a.isFirstAccess(p, refIdx, line) {
		return cachesim.CompulsoryMiss
	}

	cur := a.walkPoint
	copy(cur, p)
	ref := refIdx
	a.conflicts = a.conflicts[:0]
	assoc := a.cfg.Assoc
	var steps uint64
	for {
		ref--
		if ref < 0 {
			if !a.space.Prev(cur) {
				panic("cme: walked past the start of a non-compulsory access")
			}
			ref = len(a.refs) - 1
		}
		q := a.addrAt(cur, ref)
		ql := a.cfg.LineOf(q)
		if ql == line {
			if len(a.conflicts) < assoc {
				return cachesim.Hit
			}
			return cachesim.ReplacementMiss
		}
		if a.cfg.SetOfLine(ql) == set {
			known := false
			for _, c := range a.conflicts {
				if c == ql {
					known = true
					break
				}
			}
			if !known {
				a.conflicts = append(a.conflicts, ql)
				if len(a.conflicts) >= assoc {
					return cachesim.ReplacementMiss
				}
			}
		}
		steps++
		a.walkSteps++
		if steps >= a.walkCap {
			a.capHits++
			return cachesim.ReplacementMiss
		}
	}
}

// ClassifyAll classifies every reference at point p, accumulating into st.
func (a *Analyzer) ClassifyAll(p []int64, st *cachesim.Stats) {
	for r := range a.refs {
		st.Accesses++
		switch a.Classify(p, r) {
		case cachesim.Hit:
			st.Hits++
		case cachesim.CompulsoryMiss:
			st.Compulsory++
		case cachesim.ReplacementMiss:
			st.Replacement++
		}
	}
}

// ExhaustiveStats classifies every access of the space (small spaces only)
// and returns the aggregate statistics. This is the exact CME solution of
// the whole iteration space.
func (a *Analyzer) ExhaustiveStats() cachesim.Stats {
	var st cachesim.Stats
	p := make([]int64, a.space.NumCoords())
	if !a.space.First(p) {
		return st
	}
	for {
		a.ClassifyAll(p, &st)
		if !a.space.Next(p) {
			break
		}
	}
	return st
}
