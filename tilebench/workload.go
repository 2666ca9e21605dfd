package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/server"
)

// job is one generated request: the body the daemon receives and the
// Idempotency-Key header it carries ("" for none).
type job struct {
	req  server.TileRequest
	body []byte
	key  string
}

func newJob(req server.TileRequest, key string) job {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a TileRequest always marshals
	}
	return job{req: req, body: body, key: key}
}

// generator yields a workload's request stream. next is called with
// i = 0, 1, 2, ... in order; the stream is a pure function of the seed.
type generator interface {
	next(i int) job
}

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	// tailBP is the tail percentile reported as latency_tail_ms, in basis
	// points; fixed per workload so runs of different length compare.
	tailBP int
	// scored is how many leading jobs of the stream are re-scored for
	// quality_repl_pct; traceN how many the serial traced run replays.
	scored, traceN int
	// journalSync is the daemon's -journal-sync mode.
	journalSync string
	// workingSet is primed with its own keys before the timed window
	// (repeat-hot only).
	workingSet func(seed uint64, sources []string) []job
	gen        func(seed uint64, sources []string) generator
}

var workloads = []workload{
	{name: "search-heavy", tailBP: 9000, scored: 60, traceN: 24, journalSync: "always", gen: newHeavy},
	{name: "request-light", tailBP: 9900, scored: 64, traceN: 800, journalSync: "always", gen: newLight},
	// repeat-hot journals half its requests at thousands per second; with
	// an fsync per append it would measure the disk's fsync latency, which
	// on a shared host varies by 2x from run to run, instead of the
	// server and journal code. request-light keeps fsync on.
	{name: "repeat-hot", tailBP: 9900, scored: 16, traceN: 6400, journalSync: "none", workingSet: hotWorkingSet, gen: newHot},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rngFor derives an independent PCG stream for one purpose of one seed.
func rngFor(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream*0x9e3779b97f4a7c15+0x632be59bd9b4e019))
}

// loadSources reads the inline kernel sources shipped under root/kernels.
func loadSources(root string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(root, "kernels", "*.loop"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, string(b))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no kernels/*.loop sources under %s", root)
	}
	return out, nil
}

// --- search-heavy ---------------------------------------------------------

// heavyKernels are searched at their default sizes against the 8 KB
// direct-mapped cache, the paper's configuration.
var heavyKernels = []string{
	"MM", "MATMUL", "JACOBI3D", "ADI", "ADD", "VPENTA1",
	"T2D", "T3DJIK", "T3DIKJ", "DPSSB", "DRADFG1", "DRADBG2",
}

type variant struct {
	mode              string
	fidelity, islands int
}

// heavyDesign is the variant mix of one block: three of twelve in order
// mode, four with a three-rung fidelity ladder, four with four island
// demes. Block b gives kernel k the variant heavyDesign[(k+b)%12], so
// over twelve blocks every kernel runs every variant once, and the mix of
// any prefix of whole blocks does not depend on the seed.
var heavyDesign = []variant{
	{"tile", 0, 0}, {"tile", 3, 0}, {"tile", 0, 4}, {"order", 0, 0},
	{"tile", 3, 4}, {"tile", 0, 0}, {"order", 3, 0}, {"tile", 0, 4},
	{"tile", 3, 0}, {"order", 0, 4}, {"tile", 0, 0}, {"tile", 0, 0},
}

// heavyRetunes is how many requests of each block re-tune an earlier
// (kernel, seed) under the block's variant: a quarter.
const heavyRetunes = 3

type heavy struct {
	rng *rand.Rand
	// order is the block's kernel order; retune marks the block
	// positions that re-tune.
	order  []int
	retune []bool
	// tuned records the (seed, variant) pairs searched per kernel.
	tuned map[string][]tuning
}

type tuning struct {
	seed uint64
	v    variant
}

func newHeavy(seed uint64, _ []string) generator {
	return &heavy{rng: rngFor(seed, 1), tuned: map[string][]tuning{}}
}

func (h *heavy) used(k string, seed uint64, v variant) bool {
	for _, t := range h.tuned[k] {
		if t.seed == seed && t.v == v {
			return true
		}
	}
	return false
}

// next draws the kernels in shuffled blocks of twelve, so every kernel
// appears equally often in any prefix of whole blocks. The seed decides
// the order within a block, the GA seeds, and which requests re-tune.
func (h *heavy) next(i int) job {
	n := len(heavyKernels)
	block, pos := i/n, i%n
	if pos == 0 {
		h.order = h.rng.Perm(n)
		h.retune = make([]bool, n)
		for _, p := range h.rng.Perm(n)[:heavyRetunes] {
			h.retune[p] = true
		}
	}
	k := h.order[pos]
	name := heavyKernels[k]
	v := heavyDesign[(k+block)%n]
	seed := 1 + h.rng.Uint64N(1<<31)
	// A re-tune reuses an earlier seed of the kernel that has not run
	// this variant: a distinct request that shares evaluations in the
	// evaluation cache but no result-cache key.
	if h.retune[pos] {
		var fresh []uint64
		for _, t := range h.tuned[name] {
			if !h.used(name, t.seed, v) {
				fresh = append(fresh, t.seed)
			}
		}
		if len(fresh) > 0 {
			seed = fresh[h.rng.IntN(len(fresh))]
		}
	}
	h.tuned[name] = append(h.tuned[name], tuning{seed, v})
	return newJob(server.TileRequest{
		Kernel: name, Cache: "8k", Mode: v.mode, Seed: seed,
		Fidelity: v.fidelity, Islands: v.islands,
	}, "")
}

// --- request-light ----------------------------------------------------------

// lightSpec is one tiny request shape: a small catalog instance or an
// inline source, with its cache.
type lightSpec struct {
	kernel string
	size   int64
	source string
	cache  string
}

func lightSpecs(sources []string) []lightSpec {
	specs := []lightSpec{
		{kernel: "MM", size: 100, cache: "8k"},
		{kernel: "T2D", size: 100, cache: "32k"},
		{kernel: "ADI", size: 100, cache: "8k"},
		{kernel: "MATMUL", size: 100, cache: "32k"},
		{kernel: "T3DJIK", size: 20, cache: "8k"},
		{kernel: "JACOBI3D", size: 20, cache: "32k"},
	}
	for i, src := range sources {
		c := "8k"
		if i%2 == 1 {
			c = "32k"
		}
		specs = append(specs, lightSpec{source: src, cache: c})
	}
	return specs
}

func (s lightSpec) request(seed uint64) server.TileRequest {
	return server.TileRequest{
		Kernel: s.kernel, Size: s.size, Source: s.source, Cache: s.cache,
		Seed: seed, SamplePoints: 41, MaxEvaluations: 8,
	}
}

type light struct {
	rng   *rand.Rand
	specs []lightSpec
	perm  []int
	base  uint64
	tag   string
}

func newLight(seed uint64, sources []string) generator {
	rng := rngFor(seed, 2)
	return &light{rng: rng, specs: lightSpecs(sources), base: 1 + rng.Uint64N(1<<40), tag: "light"}
}

// next draws the request shapes in shuffled blocks; the seed counts up
// from a drawn base, so no two requests of a stream are identical, and
// every request carries a fresh Idempotency-Key.
func (l *light) next(i int) job {
	if i%len(l.specs) == 0 {
		l.perm = l.rng.Perm(len(l.specs))
	}
	seed := l.base + uint64(i)
	return newJob(l.specs[l.perm[i%len(l.specs)]].request(seed), fmt.Sprintf("%s-%d-%d", l.tag, l.base, i))
}

// --- repeat-hot -------------------------------------------------------------

// hotSetSize is the primed working set of repeat-hot.
const hotSetSize = 16

func hotWorkingSet(seed uint64, sources []string) []job {
	l := &light{rng: rngFor(seed, 3), specs: lightSpecs(sources), tag: "ws"}
	l.base = 1 + l.rng.Uint64N(1<<40)
	out := make([]job, hotSetSize)
	for i := range out {
		out[i] = l.next(i)
	}
	return out
}

type hot struct {
	rng  *rand.Rand
	set  []job
	perm []int
	seed uint64
}

func newHot(seed uint64, sources []string) generator {
	return &hot{rng: rngFor(seed, 4), set: hotWorkingSet(seed, sources), seed: seed}
}

// next walks shuffled blocks of twice the working set: each member once
// replaying its primed key (answered from the journal's idempotency
// index) and once under a fresh key (answered from the result cache).
func (h *hot) next(i int) job {
	n := 2 * len(h.set)
	if i%n == 0 {
		h.perm = h.rng.Perm(n)
	}
	p := h.perm[i%n]
	j := h.set[p%len(h.set)]
	if p >= len(h.set) {
		j.key = fmt.Sprintf("fresh-%d-%d", h.seed, i)
	}
	return j
}
