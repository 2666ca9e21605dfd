package cme

import (
	"math/rand/v2"
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/expr"
	"repro/internal/ir"
	"repro/internal/iterspace"
)

// randomSpace wraps a nest's bounding box in a random traversal order:
// the box itself, a random loop interchange, a random tiling, or a random
// permuted tiling.
func randomSpace(r *rand.Rand, depth int, lo, hi []int64) iterspace.Space {
	box := iterspace.NewBox(lo, hi)
	switch r.Int64N(4) {
	case 0:
		return box
	case 1:
		return iterspace.NewPermutedBox(box, r.Perm(depth))
	case 2:
		tile := make([]int64, depth)
		for d := range tile {
			tile[d] = 1 + r.Int64N(box.Extent(d))
		}
		return iterspace.NewTiled(box, tile)
	default:
		tile := make([]int64, depth)
		for d := range tile {
			tile[d] = 1 + r.Int64N(box.Extent(d))
		}
		return iterspace.NewPermutedTiled(box, tile, r.Perm(depth))
	}
}

// TestDifferentialRandomKernels is the equivalence guarantee of the
// optimized walk: for random kernels, caches and traversal spaces, the
// incremental walk (Classify) and the retained reference walk
// (ClassifyReference) must agree on EVERY access — and, because both count
// a step at exactly the same probes, on the cumulative walk statistics.
// Two analyzer instances are used so neither implementation can lean on
// scratch state the other left behind.
func TestDifferentialRandomKernels(t *testing.T) {
	r := rand.New(rand.NewPCG(424242, 17))
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for iter := 0; iter < iters; iter++ {
		nest := randomNest(r)
		if err := nest.Validate(); err != nil {
			t.Fatalf("iter %d: generator produced invalid nest: %v", iter, err)
		}
		cfg := randomCache(r)

		lo := make([]int64, nest.Depth())
		hi := make([]int64, nest.Depth())
		for d, l := range nest.Loops {
			lo[d] = l.Lower.Eval(nil)
			hi[d] = l.Upper.Eval(nil)
		}
		space := randomSpace(r, nest.Depth(), lo, hi)

		fast, err := NewAnalyzer(nest, space, cfg)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		ref, err := NewAnalyzer(nest, space, cfg)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}

		p := make([]int64, space.NumCoords())
		if !space.First(p) {
			continue
		}
		for {
			for ri := range nest.Refs {
				got := fast.Classify(p, ri)
				want := ref.ClassifyReference(p, ri)
				if got != want {
					t.Fatalf("iter %d (cache %v, space %T): point %v ref %d: Classify=%v ClassifyReference=%v\nnest:\n%s",
						iter, cfg, space, p, ri, got, want, nest)
				}
			}
			if !space.Next(p) {
				break
			}
		}
		fs, fa := fast.WalkStats()
		rs, ra := ref.WalkStats()
		if fs != rs || fa != ra {
			t.Fatalf("iter %d: walk stats diverge: incremental (%d steps, %d accesses) vs reference (%d, %d)",
				iter, fs, fa, rs, ra)
		}
		if fast.CapHits() != ref.CapHits() {
			t.Fatalf("iter %d: cap hits diverge: %d vs %d", iter, fast.CapHits(), ref.CapHits())
		}
	}
}

// TestDifferentialAssociativitySweep pins the equivalence on the suite's
// named kernels across associativities 1..8 (1 exercises walkDirect, the
// rest walkAssoc) and a tiled traversal, complementing the random sweep.
func TestDifferentialAssociativitySweep(t *testing.T) {
	cases := []struct {
		name string
		nest *ir.Nest
		lo   []int64
		hi   []int64
		tile []int64
	}{
		{"mm", mmNest(10), []int64{1, 1, 1}, []int64{10, 10, 10}, []int64{4, 5, 3}},
		{"stencil", stencilNest(10), []int64{2, 2}, []int64{11, 11}, []int64{3, 6}},
	}
	for _, tc := range cases {
		for _, assoc := range []int{1, 2, 4, 8} {
			space := iterspace.NewTiled(iterspace.NewBox(tc.lo, tc.hi), tc.tile)
			cfg := cache.Config{Size: int64(assoc) * 512, LineSize: 32, Assoc: assoc}
			fast, err := NewAnalyzer(tc.nest, space, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewAnalyzer(tc.nest, space, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := make([]int64, space.NumCoords())
			space.First(p)
			for {
				for ri := range tc.nest.Refs {
					got := fast.Classify(p, ri)
					want := ref.ClassifyReference(p, ri)
					if got != want {
						t.Fatalf("%s assoc=%d point %v ref %d: Classify=%v ClassifyReference=%v",
							tc.name, assoc, p, ri, got, want)
					}
				}
				if !space.Next(p) {
					break
				}
			}
		}
	}
}

// TestCloneAccountingFresh is the regression test for the clone
// counter-inheritance bug: a clone taken from a parent that has already
// done work must start its WalkStats and CapHits at zero, so aggregating
// per-worker clone counters never double-counts the parent's history.
func TestCloneAccountingFresh(t *testing.T) {
	nest := mmNest(12)
	box := iterspace.NewBox([]int64{1, 1, 1}, []int64{12, 12, 12})
	an, err := NewAnalyzer(nest, box, cache.Config{Size: 256, LineSize: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := make([]int64, 3)
	box.First(p)
	for i := 0; i < 300; i++ {
		for r := range nest.Refs {
			an.Classify(p, r)
		}
		if !box.Next(p) {
			break
		}
	}
	steps, accesses := an.WalkStats()
	if steps == 0 || accesses == 0 {
		t.Fatalf("parent did no measurable work (steps=%d accesses=%d)", steps, accesses)
	}
	an.walkCap = 1 // force a cap hit so the clone must clear it too
	box.First(p)
	for an.CapHits() == 0 {
		for r := range nest.Refs {
			an.Classify(p, r)
		}
		if !box.Next(p) {
			break
		}
	}
	an.walkCap = DefaultWalkCap
	if an.CapHits() == 0 {
		t.Fatal("failed to provoke a cap hit on the parent")
	}

	cl := an.Clone()
	if s, a := cl.WalkStats(); s != 0 || a != 0 {
		t.Fatalf("clone inherited walk accounting: steps=%d accesses=%d, want 0,0", s, a)
	}
	if cl.CapHits() != 0 {
		t.Fatalf("clone inherited %d cap hits, want 0", cl.CapHits())
	}
	// And the clone still classifies identically to the parent.
	box.First(p)
	for i := 0; i < 50; i++ {
		for r := range nest.Refs {
			if cl.Classify(p, r) != an.Classify(p, r) {
				t.Fatalf("clone classification diverges at %v ref %d", p, r)
			}
		}
		if !box.Next(p) {
			break
		}
	}
}

// TestRebindMatchesFreshAnalyzer: an analyzer rebound from one space to
// another must classify exactly like a freshly constructed analyzer on the
// target space, with its accounting restarted — the contract the core
// evaluator's analyzer pool relies on.
func TestRebindMatchesFreshAnalyzer(t *testing.T) {
	nest := transposeNest(16)
	box := iterspace.NewBox([]int64{1, 1}, []int64{16, 16})
	cfg := cache.Config{Size: 512, LineSize: 32, Assoc: 2}

	an, err := NewAnalyzer(nest, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Do some work on the box so rebinding has state to clear.
	p := make([]int64, box.NumCoords())
	box.First(p)
	for i := 0; i < 100; i++ {
		for r := range nest.Refs {
			an.Classify(p, r)
		}
		if !box.Next(p) {
			break
		}
	}

	tiled := iterspace.NewTiled(box, []int64{4, 6})
	if err := an.Rebind(tiled); err != nil {
		t.Fatal(err)
	}
	if s, a := an.WalkStats(); s != 0 || a != 0 {
		t.Fatalf("rebind kept walk accounting: steps=%d accesses=%d", s, a)
	}
	fresh, err := NewAnalyzer(nest, tiled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tp := make([]int64, tiled.NumCoords())
	tiled.First(tp)
	for {
		for r := range nest.Refs {
			got := an.Classify(tp, r)
			want := fresh.Classify(tp, r)
			if got != want {
				t.Fatalf("rebound analyzer diverges at %v ref %d: %v vs fresh %v", tp, r, got, want)
			}
		}
		if !tiled.Next(tp) {
			break
		}
	}
	// Identical work must yield identical accounting.
	rs, ra := an.WalkStats()
	fs, fa := fresh.WalkStats()
	if rs != fs || ra != fa {
		t.Fatalf("rebound walk stats (%d, %d) != fresh (%d, %d)", rs, ra, fs, fa)
	}

	// Rebinding at a space of mismatched original rank must fail cleanly.
	bad := iterspace.NewBox([]int64{1}, []int64{8})
	if err := an.Rebind(bad); err == nil {
		t.Fatal("rebind accepted a space with the wrong original rank")
	}
}

// randomLongNest generates a nest whose innermost loop is long (extent
// 64–600) under few short outer loops, with references whose innermost
// stride covers the kinds the window solver must get right for the cache
// geometry cfg: zero, negative, sub-line, odd multiples of small powers of
// two (deep Euclid recursions), exact multiples of the way span and
// strides larger than the span. Subscript offsets reach far below 1, so some references touch
// negative addresses (an effective base below zero) along whole runs.
func randomLongNest(r *rand.Rand, cfg cache.Config) *ir.Nest {
	span := cfg.NumSets() * cfg.LineSize
	depth := 1 + int(r.Int64N(3))
	loops := make([]ir.Loop, depth)
	names := []string{"i", "j", "k"}
	for d := 0; d < depth; d++ {
		extent := 2 + r.Int64N(3)
		if d == depth-1 {
			extent = 64 + r.Int64N(537)
		}
		loops[d] = ir.Loop{
			Var:   names[d],
			Lower: expr.Const(1),
			Upper: ir.BoundOf(expr.Const(extent)),
			Step:  1,
		}
	}
	inner := depth - 1
	elems := []int64{1, 4, 8, 16}
	nArrays := 1 + int(r.Int64N(3))
	arrays := make([]*ir.Array, nArrays)
	for a := range arrays {
		elem := elems[r.Int64N(int64(len(elems)))]
		lead := 1 + r.Int64N(700)
		switch r.Int64N(4) {
		case 0: // column stride an exact multiple of the way span
			lead = max(1, span/elem) * (1 + r.Int64N(2))
		case 1: // column stride just past the span
			lead = max(1, span/elem) + 1 + 2*r.Int64N(4)
		}
		arrays[a] = &ir.Array{
			Name: string(rune('a' + a)),
			Dims: []int64{lead, 40},
			Elem: elem,
		}
	}
	ir.LayoutArrays(r.Int64N(4)*8, []int64{1, 32, 1024}[r.Int64N(3)], arrays...)

	nRefs := 1 + int(r.Int64N(4))
	refs := make([]ir.Ref, nRefs)
	for i := range refs {
		arr := arrays[r.Int64N(int64(nArrays))]
		subs := make([]expr.Affine, 2)
		for d := range subs {
			// The column subscript mostly runs the innermost loop and the
			// row subscript mostly stays fixed, so outer iterations reuse
			// lines and walks reach back across whole runs.
			v := inner
			if d == 1 || r.Int64N(4) == 0 {
				v = int(r.Int64N(int64(depth)))
			}
			if d == 1 && r.Int64N(2) == 0 {
				subs[d] = expr.Const(1 + r.Int64N(4))
				continue
			}
			switch r.Int64N(6) {
			case 0:
				subs[d] = expr.Const(1 + r.Int64N(4))
			case 1: // reversed
				subs[d] = expr.Term(v, -1, 1+r.Int64N(700))
			case 2: // strided, possibly reversed
				subs[d] = expr.Term(v, []int64{-3, 2, 3, 5, -7, 37}[r.Int64N(6)], r.Int64N(9)-4)
			case 3: // offset far below the array start
				subs[d] = expr.VarPlus(v, -1-r.Int64N(500))
			default:
				subs[d] = expr.VarPlus(v, r.Int64N(4))
			}
		}
		refs[i] = ir.Ref{Array: arr, Subs: subs, Write: r.Int64N(4) == 0}
	}
	return &ir.Nest{Name: "long", Loops: loops, Refs: refs}
}

// TestDifferentialLongRuns drives the jump walk where it matters: long
// innermost runs against 128 B–8 KB direct-mapped caches, every stride
// kind, negative addresses, and forced walk caps (including ones that
// land mid-run). On sampled points, Classify must agree with
// ClassifyReference on every outcome, and on the cumulative WalkStats and
// CapHits.
func TestDifferentialLongRuns(t *testing.T) {
	r := rand.New(rand.NewPCG(1302, 5))
	iters, points := 600, 60
	if testing.Short() {
		iters = 100
	}
	sizes := []int64{128, 256, 512, 1024, 2048, 4096, 8192}
	lines := []int64{16, 32, 64, 128}
	caps := []uint64{1, 2, 7, 1000, DefaultWalkCap, DefaultWalkCap, DefaultWalkCap, DefaultWalkCap}
	// strideKinds counts the innermost strides the sweep must reach:
	// zero, negative, sub-line, span multiple, larger than the span.
	var strideKinds [5]int
	var latticeRefs, totalRefs int
	outcomes := map[cachesim.Outcome]int{}
	var negative, crossed int
	var capHits uint64
	for iter := 0; iter < iters; iter++ {
		var cfg cache.Config
		for {
			cfg = cache.Config{Size: sizes[r.Int64N(int64(len(sizes)))], LineSize: lines[r.Int64N(int64(len(lines)))], Assoc: 1}
			if r.Int64N(8) == 0 {
				cfg.Assoc = 2
			}
			if cfg.Validate() == nil {
				break
			}
		}
		nest := randomLongNest(r, cfg)
		if err := nest.Validate(); err != nil {
			t.Fatalf("iter %d: generator produced invalid nest: %v", iter, err)
		}
		lo := make([]int64, nest.Depth())
		hi := make([]int64, nest.Depth())
		for d, l := range nest.Loops {
			lo[d] = l.Lower.Eval(nil)
			hi[d] = l.Upper.Eval(nil)
		}
		space := randomSpace(r, nest.Depth(), lo, hi)
		walkCap := caps[r.Int64N(int64(len(caps)))]

		fast, err := NewAnalyzer(nest, space, cfg)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		ref, err := NewAnalyzer(nest, space, cfg)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		fast.walkCap, ref.walkCap = walkCap, walkCap

		span := cfg.NumSets() * cfg.LineSize
		for _, st := range fast.strides {
			totalRefs++
			if st.lattice {
				latticeRefs++
			}
			c := st.c
			switch {
			case c == 0:
				strideKinds[0]++
			case c < 0:
				strideKinds[1]++
			}
			if c != 0 && c > -cfg.LineSize && c < cfg.LineSize {
				strideKinds[2]++
			}
			if c != 0 && c%span == 0 {
				strideKinds[3]++
			}
			if c > span || c < -span {
				strideKinds[4]++
			}
		}
		p := make([]int64, space.NumCoords())
		for n := 0; n < points; n++ {
			space.Sample(r, p)
			for ri := range nest.Refs {
				if fast.addrAt(p, ri) < 0 {
					negative++
				}
				before, _ := fast.WalkStats()
				got := fast.Classify(p, ri)
				want := ref.ClassifyReference(p, ri)
				outcomes[got]++
				if after, _ := fast.WalkStats(); after-before > uint64(ri)+uint64(space.InnerRun(p))*uint64(len(nest.Refs)) {
					crossed++
				}
				if got != want {
					t.Fatalf("iter %d (cache %v, space %T, cap %d): point %v ref %d: Classify=%v ClassifyReference=%v\nnest:\n%s",
						iter, cfg, space, walkCap, p, ri, got, want, nest)
				}
			}
		}
		fs, fa := fast.WalkStats()
		rs, ra := ref.WalkStats()
		if fs != rs || fa != ra {
			t.Fatalf("iter %d (cache %v, space %T, cap %d): walk stats diverge: jump (%d steps, %d accesses) vs reference (%d, %d)\nnest:\n%s",
				iter, cfg, space, walkCap, fs, fa, rs, ra, nest)
		}
		if fast.CapHits() != ref.CapHits() {
			t.Fatalf("iter %d (cap %d): cap hits diverge: %d vs %d", iter, walkCap, fast.CapHits(), ref.CapHits())
		}
		capHits += fast.CapHits()
	}
	// The sweep must have reached what it exists to reach.
	if latticeRefs == 0 || latticeRefs == totalRefs {
		t.Errorf("window solver paths not both reached: %d of %d references take the lattice shortcut", latticeRefs, totalRefs)
	}
	for k, n := range strideKinds {
		if n == 0 {
			t.Errorf("no reference had an innermost stride of kind %d (zero, negative, sub-line, span multiple, beyond span)", k)
		}
	}
	if negative == 0 || crossed == 0 || capHits == 0 || outcomes[cachesim.Hit] == 0 || outcomes[cachesim.ReplacementMiss] == 0 {
		t.Errorf("sweep coverage too thin: %d negative-address accesses, %d walks across whole runs, %d cap hits, outcomes %v",
			negative, crossed, capHits, outcomes)
	}
}

// TestWalkCapMidRun pins the cap at a step count inside an innermost run
// the jump would otherwise cross whole: the jump walk must stop at exactly
// walkCap steps with one cap hit, as the per-access walk does.
func TestWalkCapMidRun(t *testing.T) {
	// a(j,k) has one element per line and fits the cache conflict-free,
	// so its reuse at (i-1, k, j) lies two whole runs beyond the walk
	// point's own, with nothing in the target set in between.
	const n = 80
	a := &ir.Array{Name: "a", Dims: []int64{n, 3}, Elem: 32}
	b := &ir.Array{Name: "b", Dims: []int64{3}, Elem: 32}
	ir.LayoutArrays(0, 32, a, b)
	nest := &ir.Nest{
		Name: "midrun",
		Loops: []ir.Loop{
			{Var: "i", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(3)), Step: 1},
			{Var: "k", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(3)), Step: 1},
			{Var: "j", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(n)), Step: 1},
		},
		Refs: []ir.Ref{
			{Array: a, Subs: []expr.Affine{expr.Var(2), expr.Var(1)}},
			{Array: b, Subs: []expr.Affine{expr.Var(0)}},
		},
	}
	box := iterspace.NewBox([]int64{1, 1, 1}, []int64{3, 3, n})
	p := []int64{2, 2, 40}
	const nrefs = 2
	own := uint64(box.InnerRun(p)) * nrefs
	cfg := cache.Config{Size: 8192, LineSize: 32, Assoc: 1}
	for _, walkCap := range []uint64{own + n*nrefs + n*nrefs/2 + 1, DefaultWalkCap} {
		for _, jump := range []bool{true, false} {
			an, err := NewAnalyzer(nest, box, cfg)
			if err != nil {
				t.Fatal(err)
			}
			an.walkCap = walkCap
			var got cachesim.Outcome
			if jump {
				got = an.Classify(p, 0)
			} else {
				got = an.ClassifyReference(p, 0)
			}
			steps, _ := an.WalkStats()
			if walkCap == DefaultWalkCap {
				// Uncapped: a hit two runs back, every access between
				// passed over.
				if want := own + 2*n*nrefs + uint64(n-p[2])*nrefs + 1; got != cachesim.Hit || an.CapHits() != 0 || steps != want {
					t.Fatalf("jump=%v uncapped: outcome %v, cap hits %d, steps %d; want hit, 0, %d",
						jump, got, an.CapHits(), steps, want)
				}
				continue
			}
			if got != cachesim.ReplacementMiss || an.CapHits() != 1 || steps != walkCap {
				t.Fatalf("jump=%v: outcome %v, cap hits %d, steps %d; want replacement miss, 1, %d",
					jump, got, an.CapHits(), steps, walkCap)
			}
		}
	}
}
