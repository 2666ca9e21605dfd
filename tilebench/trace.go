package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cme"
	"repro/internal/journal"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tiling"
)

// tracer is the telemetry.Recorder the traced run hands the in-process
// server. It sums the work counters and turns the search's own event
// boundaries into spans: a search runs from SearchStart to SearchStop,
// and an evaluation from its analyzer-pool counter (delivered just before
// classification starts) to its EvaluationBatch (just after it ends).
// Island demes evaluate concurrently, so classification time is the
// measure of the moments at least one evaluation is open.
type tracer struct {
	mu       sync.Mutex
	counters telemetry.Counters
	// open counts evaluations in flight; since is when open last left 0.
	open     int
	since    time.Time
	classify time.Duration
	// searchStart is the open search's start; search sums closed ones.
	searchStart time.Time
	search      time.Duration
	searches    int
	generations int
}

func (t *tracer) Event(e telemetry.Event) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e := e.(type) {
	case telemetry.SearchStart:
		t.searchStart = now
	case telemetry.SearchStop:
		t.search += now.Sub(t.searchStart)
		t.searches++
		t.generations += e.Generations
		t.closeEvals(now)
	case telemetry.EvaluationBatch:
		if t.open > 0 {
			t.open--
			if t.open == 0 {
				t.classify += now.Sub(t.since)
			}
		}
	}
}

// closeEvals ends any evaluation a failed batch left open.
func (t *tracer) closeEvals(now time.Time) {
	if t.open > 0 {
		t.classify += now.Sub(t.since)
		t.open = 0
	}
}

func (t *tracer) Add(c telemetry.Counters) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters = t.counters.Plus(c)
	if c.PoolHits+c.PoolMisses > 0 {
		if t.open == 0 {
			t.since = now
		}
		t.open++
	}
}

// reset zeroes everything recorded so far (set-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters, t.open, t.classify = telemetry.Counters{}, 0, 0
	t.search, t.searches, t.generations = 0, 0, 0
}

// inProcess serves one job through the server's handler and times it.
func inProcess(h http.Handler, j job) (int, []byte, string, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, "/v1/tile", bytes.NewReader(j.body))
	req.Header.Set("Content-Type", "application/json")
	if j.key != "" {
		req.Header.Set("Idempotency-Key", j.key)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	took := time.Since(t0)
	return rec.Code, rec.Body.Bytes(), rec.Header().Get("X-Tilingd-Cache"), took
}

// passStats is what one serial replay of the trace prefix measured.
type passStats struct {
	handle    time.Duration
	bySource  map[string][]float64 // handle µs per X-Tilingd-Cache source
	failed    int
	failures  []string
	attempted int
	shed      int

	// Traced passes only.
	appends, nonCkptAppends int
	replayMS                float64
	journalBytes            int64
	misses                  []missed
	spans                   map[string][]float64 // benchmark-side spans, µs
}

// missed is a searched request and its answer, kept for the sampling
// replica.
type missed struct {
	req server.TileRequest
	ans scored
}

// serverConfig mirrors the daemon's flags (tilingd defaults plus the
// workload's journal sync mode) for the in-process server.
func serverConfig(w workload, stateDir string, obs telemetry.Recorder) (server.Config, error) {
	sync, err := journal.ParseSyncMode(w.journalSync)
	return server.Config{
		StateDir: stateDir, JournalSync: sync,
		CheckpointInterval: 2 * time.Second, Observer: obs,
	}, err
}

// replayPass serially replays the workload's first traceN jobs through an
// in-process server on a fresh state directory. With tr set the server
// reports to it and the benchmark takes its own spans around direct
// calls into the parser, kernels, cme and journal layers.
func (b *bench) replayPass(w workload, dir string, tr *tracer) (*passStats, error) {
	var obs telemetry.Recorder
	if tr != nil {
		obs = tr
	}
	state := filepath.Join(dir, "state")
	cfg, err := serverConfig(w, state, obs)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	chk := newChecker()
	ps := &passStats{bySource: map[string][]float64{}, spans: map[string][]float64{}}
	serveSetup := func(h http.Handler, j job) error {
		status, body, _, _ := inProcess(h, j)
		_, err := chk.check(j, status, body)
		return err
	}
	if w.workingSet != nil {
		ws := w.workingSet(b.seed, b.sources)
		for _, j := range ws {
			if err := serveSetup(srv.Handler(), j); err != nil {
				return nil, fmt.Errorf("priming: %w", err)
			}
		}
		srv.Drain(context.Background())
		if srv, err = server.New(cfg); err != nil {
			return nil, err
		}
		for i, j := range ws {
			j.key = fmt.Sprintf("warm-%d", i)
			if err := serveSetup(srv.Handler(), j); err != nil {
				return nil, fmt.Errorf("warming: %w", err)
			}
		}
	}
	defer srv.Drain(context.Background())
	h := srv.Handler()

	var rep *journal.Journal
	if tr != nil {
		tr.reset()
		if rep, _, err = journal.Open(filepath.Join(dir, "replica"), journal.Options{Sync: cfg.JournalSync}); err != nil {
			return nil, err
		}
		defer rep.Close()
	}
	jdir := filepath.Join(state, "journal")
	lines0, ckpt0, err := journalLines(jdir)
	if err != nil {
		return nil, err
	}
	gen := w.gen(b.seed, b.sources)
	for i := 0; i < w.traceN; i++ {
		j := gen.next(i)
		status, body, source, took := inProcess(h, j)
		ps.attempted++
		ps.handle += took
		ps.bySource[source] = append(ps.bySource[source], us(took))
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			ps.shed++
		}
		ans, err := checkScored(chk, j, status, body, true)
		if err != nil {
			ps.failed++
			if len(ps.failures) < 5 {
				ps.failures = append(ps.failures, fmt.Sprintf("traced request %d: %v", i, err))
			}
			continue
		}
		if tr == nil {
			continue
		}
		if err := ps.replicate(rep, j, source, body); err != nil {
			return nil, err
		}
		if source == "miss" && len(ps.misses) < samplingReplicas {
			ps.misses = append(ps.misses, missed{req: j.req, ans: *ans})
		}
	}
	if tr == nil {
		return ps, nil
	}
	lines1, ckpt1, err := journalLines(jdir)
	if err != nil {
		return nil, err
	}
	ps.appends = lines1 - lines0
	ps.nonCkptAppends = ps.appends - (ckpt1 - ckpt0)
	t0 := time.Now()
	if _, err := journal.Replay(jdir, journal.Options{}); err != nil {
		return nil, err
	}
	ps.replayMS = float64(time.Since(t0)) / 1e6
	ps.journalBytes, err = dirBytes(jdir)
	return ps, err
}

// samplingReplicas bounds how many searched answers the sampling layer
// is re-timed on.
const samplingReplicas = 8

// replicate times, outside the handler, the direct calls the request
// path makes into the lower layers: decoding the body, instancing or
// parsing the nest, building a CME analyzer for it, and the journal
// appends a non-replayed request costs (accepted, started, done).
func (ps *passStats) replicate(rep *journal.Journal, j job, source string, respBody []byte) error {
	t0 := time.Now()
	var req server.TileRequest
	dec := json.NewDecoder(bytes.NewReader(j.body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return err
	}
	ps.span("server.decode", t0)

	t0 = time.Now()
	nest, err := buildNest(req)
	if err != nil {
		return err
	}
	if req.Source != "" {
		ps.span("parser.parse", t0)
	} else {
		ps.span("kernels.instance", t0)
	}

	cfg, err := cliutil.ParseCache(req.Cache)
	if err != nil {
		return err
	}
	t0 = time.Now()
	box, err := tiling.Box(nest)
	if err != nil {
		return err
	}
	if _, err := cme.NewAnalyzer(nest, box, cfg); err != nil {
		return err
	}
	ps.span("cme.analyzer_build", t0)

	if source == "journal" {
		return nil
	}
	for _, rec := range []journal.Record{
		{Op: journal.OpAccepted, Key: j.key, CacheKey: "replica", Request: j.body},
		{Op: journal.OpStarted, Key: j.key},
		{Op: journal.OpDone, Key: j.key, Response: respBody, Outcome: "ok"},
	} {
		t0 = time.Now()
		if err := rep.Append(rec); err != nil {
			return err
		}
		ps.span("journal.append", t0)
	}
	return nil
}

func (ps *passStats) span(name string, t0 time.Time) {
	ps.spans[name] = append(ps.spans[name], us(time.Since(t0)))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// journalLines counts the records in a journal directory's segments, and
// how many of them are checkpoint pointers.
func journalLines(dir string) (records, checkpoints int, err error) {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return 0, 0, err
	}
	for _, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			return 0, 0, err
		}
		records += bytes.Count(b, []byte("\n"))
		checkpoints += strings.Count(string(b), `"op":"checkpointed"`)
	}
	return records, checkpoints, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// samplingTimes re-times the sampling layer on searched answers: one
// evaluation of the request's sample over the answer's tiled space with
// one and with two analyzer workers, the median of three tries each.
func samplingTimes(ms []missed) (w1, w2 float64, err error) {
	var s1, s2 float64
	for _, m := range ms {
		s := m.ans.shape
		an, err := cme.NewAnalyzer(s.nest, m.ans.space(), s.cfg)
		if err != nil {
			return 0, 0, err
		}
		points := m.req.SamplePoints
		if points == 0 {
			points = sampling.PaperSampleSize
		}
		sample := sampling.Draw(s.box, points, rngFor(m.req.Seed, 9))
		pool := an.WorkerPool(2)
		for _, w := range []int{1, 2} {
			var tries []float64
			for k := 0; k < 3; k++ {
				t0 := time.Now()
				if _, err := sample.EvaluateWith(context.Background(), pool[:w]); err != nil {
					return 0, 0, err
				}
				tries = append(tries, float64(time.Since(t0))/1e6)
			}
			if w == 1 {
				s1 += median(tries)
			} else {
				s2 += median(tries)
			}
		}
	}
	if len(ms) == 0 {
		return 0, 0, nil
	}
	return s1 / float64(len(ms)), s2 / float64(len(ms)), nil
}

// runTraced measures the per-layer metrics: an untraced serial replay of
// the trace prefix, then a traced one of the same jobs on a fresh state
// directory, and the ledger of where the traced request time went.
func (b *bench) runTraced(w workload) (*result, error) {
	plain, err := b.replayPass(w, filepath.Join(b.workDir, "plain"), nil)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	ps, err := b.replayPass(w, filepath.Join(b.workDir, "traced"), tr)
	if err != nil {
		return nil, err
	}
	tr.mu.Lock()
	c, classify, search := tr.counters, tr.classify, tr.search
	searches, gens := tr.searches, tr.generations
	tr.mu.Unlock()
	w1, w2, err := samplingTimes(ps.misses)
	if err != nil {
		return nil, err
	}

	r := &result{
		attempted: plain.attempted + ps.attempted,
		failed:    plain.failed + ps.failed,
		failures:  append(plain.failures, ps.failures...),
	}
	n := float64(ps.attempted)
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	perSearch := func(d time.Duration) float64 {
		if searches == 0 {
			return 0
		}
		return float64(d) / 1e6 / float64(searches)
	}

	// cme
	steps := 0.0
	classifyNS := 0.0
	if c.ClassifiedAccesses > 0 {
		steps = float64(c.WalkSteps) / float64(c.ClassifiedAccesses)
		classifyNS = float64(classify) / float64(c.ClassifiedAccesses)
	}
	r.add("cme.walk_steps_per_access", steps, "steps")
	r.add("cme.classify_ns", classifyNS, "ns")
	r.add("cme.analyzer_build_us", mean(ps.spans["cme.analyzer_build"]), "us")
	// sampling
	r.add("sampling.eval_ms_w1", w1, "ms")
	r.add("sampling.eval_ms_w2", w2, "ms")
	speedup := 0.0
	if w2 > 0 {
		speedup = w1 / w2
	}
	r.add("sampling.speedup_w2", speedup, "x")
	// ga / core
	r.add("core.search_ms", perSearch(search), "ms")
	r.add("ga.other_ms", perSearch(search-classify), "ms")
	r.add("core.sampled_points", float64(c.SampledPoints), "count")
	r.add("ga.evaluations", float64(c.Evaluations), "count")
	r.add("ga.generations", float64(gens), "count")
	r.add("ga.memo_hit_ratio", ratio(c.MemoHits, c.Evaluations), "ratio")
	// evalcache
	r.add("evalcache.hit_ratio", ratio(c.EvalCacheHits, c.EvalCacheMisses), "ratio")
	r.add("core.pool_hit_ratio", ratio(c.PoolHits, c.PoolMisses), "ratio")
	// journal
	appendUS := mean(ps.spans["journal.append"])
	r.add("journal.append_us", appendUS, "us")
	r.add("journal.appends_per_req", float64(ps.appends)/n, "count")
	r.add("journal.replay_ms", ps.replayMS, "ms")
	r.add("journal.bytes", float64(ps.journalBytes), "bytes")
	// server
	for _, src := range []string{"journal", "hit", "miss"} {
		r.add("server.handle_us."+src, mean(ps.bySource[src]), "us")
	}
	r.add("server.decode_us", mean(ps.spans["server.decode"]), "us")
	// parser / kernels
	r.add("parser.parse_us", mean(ps.spans["parser.parse"]), "us")
	r.add("kernels.instance_us", mean(ps.spans["kernels.instance"]), "us")

	// The ledger: where the traced request time went. Classification and
	// the rest of the search are measured inside the handler; journal
	// appends (outside the search), decoding and nest building are priced
	// by the benchmark's own direct calls.
	total := us(ps.handle)
	cmeUS := us(classify)
	searchOther := us(search - classify)
	journalUS := float64(ps.nonCkptAppends) * appendUS
	decodeUS := sum(ps.spans["server.decode"]) + sum(ps.spans["parser.parse"]) + sum(ps.spans["kernels.instance"])
	rest := total - cmeUS - searchOther - journalUS - decodeUS
	share := func(x float64) float64 {
		if total <= 0 {
			return 0
		}
		return 100 * x / total
	}
	r.add("share.cme_pct", share(cmeUS), "%")
	r.add("share.search_other_pct", share(searchOther), "%")
	r.add("share.journal_pct", share(journalUS), "%")
	r.add("share.decode_normalize_pct", share(decodeUS), "%")
	r.add("share.server_other_pct", share(max(rest, 0)), "%")
	r.add("trace.overhead_pct", 100*(float64(ps.handle)/float64(plain.handle)-1), "%")
	r.add("trace.requests", n, "count")

	// Work counters of the serial replay. They repeat exactly for a fixed
	// seed, except that island demes evaluating concurrently race on the
	// shared evaluation cache, which moves search-heavy's by about 0.02%.
	r.add("serial.walk_steps", float64(c.WalkSteps), "count")
	r.add("serial.classified_accesses", float64(c.ClassifiedAccesses), "count")
	r.add("serial.pool_hits", float64(c.PoolHits), "count")
	r.add("serial.pool_misses", float64(c.PoolMisses), "count")
	r.add("serial.evalcache_hits", float64(c.EvalCacheHits), "count")
	r.add("serial.evalcache_misses", float64(c.EvalCacheMisses), "count")
	r.add("serial.cache_hits", float64(len(ps.bySource["hit"])), "count")
	r.add("serial.requests_shed", float64(ps.shed), "count")
	sources := map[string]int{}
	for src, xs := range ps.bySource {
		sources[src] = len(xs)
	}
	r.report = map[string]any{
		"cache_sources":   sources,
		"ledger_note":     "share of summed in-process handler time; journal, decode and nest building priced by direct calls",
		"traced_ms":       float64(ps.handle) / 1e6,
		"untraced_ms":     float64(plain.handle) / 1e6,
		"searches":        searches,
		"journal_appends": ps.appends,
		"counters":        "serial.* repeat exactly per seed, up to island-deme races on search-heavy",
	}
	return r, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is the average of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
