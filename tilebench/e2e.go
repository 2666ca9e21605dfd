package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// setupRuns is how many times one run sets the daemon up; setup_s is
// the median, and the last set-up daemon serves the timed window.
const setupRuns = 9

// send posts one job to /v1/tile and returns the status, the response
// bytes and the X-Tilingd-Cache source.
func send(c *http.Client, base string, j job) (int, []byte, string, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/tile", bytes.NewReader(j.body))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if j.key != "" {
		req.Header.Set("Idempotency-Key", j.key)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get("X-Tilingd-Cache"), err
}

// sendChecked sends a set-up request; any failure aborts the run.
func sendChecked(c *http.Client, base string, chk *checker, j job) (scored, error) {
	status, body, _, err := send(c, base, j)
	if err != nil {
		return scored{}, err
	}
	s, err := checkScored(chk, j, status, body, true)
	if err != nil {
		return scored{}, err
	}
	return *s, nil
}

// setUp starts a daemon on a fresh state directory and, for a workload
// with a working set, primes it under its keys, restarts the daemon (which
// replays the journal) and warms the result cache with the same bodies
// under fresh keys. It returns the serving daemon, the time from exec to
// ready, and the re-scorable working-set answers.
func (b *bench) setUp(w workload, dir string, ws []job, chk *checker) (*daemon, time.Duration, []scored, error) {
	t0 := time.Now()
	d, err := startDaemon(b.daemonBin, w, dir)
	if err != nil {
		return nil, 0, nil, err
	}
	fail := func(err error) (*daemon, time.Duration, []scored, error) {
		d.kill()
		return nil, 0, nil, err
	}
	if err := d.waitHealthy(b.client); err != nil {
		return fail(err)
	}
	if ws == nil {
		return d, time.Since(t0), nil, nil
	}
	var answers []scored
	for _, j := range ws {
		s, err := sendChecked(b.client, d.base, chk, j)
		if err != nil {
			return fail(fmt.Errorf("priming: %w", err))
		}
		answers = append(answers, s)
	}
	if err := d.stop(); err != nil {
		return nil, 0, nil, err
	}
	if d, err = startDaemon(b.daemonBin, w, dir); err != nil {
		return nil, 0, nil, err
	}
	if err := d.waitHealthy(b.client); err != nil {
		return fail(err)
	}
	for i, j := range ws {
		j.key = fmt.Sprintf("warm-%d", i)
		if _, err := sendChecked(b.client, d.base, chk, j); err != nil {
			return fail(fmt.Errorf("warming: %w", err))
		}
	}
	return d, time.Since(t0), answers, nil
}

// loadResult is what the closed loop observed.
type loadResult struct {
	// latMS holds the request latencies in completion order.
	latMS     []float64
	elapsed   time.Duration
	attempted int
	failures  []string
	failed    int
	sources   map[string]int
	scored    map[int]scored
}

// closedLoop runs the closed-loop clients against the daemon for the
// timed window: each sends its next request of the shared stream only
// after the previous reply. No request starts after the window; it ends
// at the last reply.
func (b *bench) closedLoop(d *daemon, w workload, gen generator, chk *checker) *loadResult {
	var mu sync.Mutex
	res := &loadResult{sources: map[string]int{}, scored: map[int]scored{}}
	next := 0
	var last time.Time
	start := time.Now()
	type sample struct {
		done time.Time
		ms   float64
	}
	var samples []sample
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []sample
			for time.Since(start) < b.seconds {
				mu.Lock()
				i := next
				next++
				j := gen.next(i)
				mu.Unlock()
				t0 := time.Now()
				status, body, source, err := send(b.client, d.base, j)
				t1 := time.Now()
				var resp *scored
				if err == nil {
					resp, err = checkScored(chk, j, status, body, i < w.scored)
				}
				lat = append(lat, sample{t1, float64(t1.Sub(t0)) / 1e6})
				mu.Lock()
				res.attempted++
				res.sources[source]++
				if t1.After(last) {
					last = t1
				}
				if err != nil {
					res.failed++
					if len(res.failures) < 5 {
						res.failures = append(res.failures, fmt.Sprintf("request %d: %v", i, err))
					}
				} else if resp != nil {
					res.scored[i] = *resp
				}
				mu.Unlock()
			}
			mu.Lock()
			samples = append(samples, lat...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = last.Sub(start)
	sort.Slice(samples, func(i, j int) bool { return samples[i].done.Before(samples[j].done) })
	for _, s := range samples {
		res.latMS = append(res.latMS, s.ms)
	}
	return res
}

// checkScored validates one response and, when keep is set, returns it
// for re-scoring.
func checkScored(chk *checker, j job, status int, body []byte, keep bool) (*scored, error) {
	resp, err := chk.check(j, status, body)
	if err != nil || !keep {
		return nil, err
	}
	s, err := chk.shapeOf(j.req)
	if err != nil {
		return nil, err
	}
	return &scored{shape: s, tile: resp.Tile, order: resp.Order}, nil
}

// counterNames are the daemon's tilingd.* expvar counters recorded per run.
var counterNames = []string{
	"walk_steps", "classified_accesses", "sampled_points", "evaluations",
	"evalcache_hits", "evalcache_misses", "pool_hits", "pool_misses",
	"cache_hits", "requests_shed",
}

// runEndToEnd measures one workload against the tilingd binary.
func (b *bench) runEndToEnd(w workload) (*result, error) {
	chk := newChecker()
	var ws []job
	if w.workingSet != nil {
		ws = w.workingSet(b.seed, b.sources)
	}
	var (
		d       *daemon
		setups  []float64
		answers []scored
	)
	for k := 0; k < setupRuns; k++ {
		dir := filepath.Join(b.workDir, fmt.Sprintf("state-%d", k))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		nd, took, a, err := b.setUp(w, dir, ws, chk)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		answers = a
		if k < setupRuns-1 {
			if err := nd.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		d = nd
	}
	before, err := d.counters(b.client)
	if err != nil {
		d.kill()
		return nil, err
	}
	lr := b.closedLoop(d, w, w.gen(b.seed, b.sources), chk)
	after, err := d.counters(b.client)
	if err != nil {
		d.kill()
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	if answers == nil {
		for i := 0; i < w.scored; i++ {
			if s, ok := lr.scored[i]; ok {
				answers = append(answers, s)
			}
		}
	}
	quality, err := meanReplacementPct(answers)
	if err != nil {
		return nil, err
	}
	n := len(lr.latMS)
	if n == 0 {
		return nil, fmt.Errorf("no request completed in %v", b.seconds)
	}
	tailName := bpName(w.tailBP)
	var warnings []string
	if beyond(n, w.tailBP) < minBeyond {
		warnings = append(warnings, fmt.Sprintf("only %d samples: %s has fewer than %d beyond it (highest measured: %s)",
			n, tailName, minBeyond, bpName(highestTail(n))))
	}
	r := &result{attempted: lr.attempted, failed: lr.failed, failures: lr.failures}
	r.add("req_per_s", float64(n)/lr.elapsed.Seconds(), "1/s")
	// The tail is taken per slice of about a second, median over slices,
	// so a host stall of a second or two does not set it.
	tail := sliceTail(lr.latMS, w.tailBP, int(b.seconds/time.Second))
	r.add("latency_p50_ms", percentile(lr.latMS, 5000), "ms")
	r.add("latency_tail_ms", tail, "ms")
	r.add("quality_repl_pct", quality, "%")
	r.add("setup_s", median(setups), "s")
	r.add("peak_rss_mb", rss, "MB")
	deltas := map[string]int64{}
	for _, name := range counterNames {
		deltas[name] = after[name] - before[name]
	}
	r.report = map[string]any{
		"samples":         n,
		"tail_percentile": tailName,
		"fail_ratio":      float64(lr.failed) / float64(lr.attempted),
		"window_s":        lr.elapsed.Seconds(),
		"cache_sources":   lr.sources,
		"setup_runs_s":    setups,
		"rescored":        len(answers),
		"warnings":        warnings,
		"daemon_counters": map[string]any{
			"kind":   "interleaving-dependent: deltas over the concurrent timed window",
			"deltas": deltas,
		},
	}
	return r, nil
}
