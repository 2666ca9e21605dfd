// Command tilebench is the repository's end-to-end benchmark. It drives
// the tilingd binary, started with a state directory as the README
// deploys it, from a closed loop of two clients (each sends its next
// request only after the last reply) under one of three traffic mixes:
//
//   - search-heavy: full paper-sized searches over a dozen catalog
//     kernels, in tile and order modes, with and without fidelity ladders
//     and island demes, a quarter of them re-tuning an earlier kernel and
//     seed; the CME backward walk does almost all of the work;
//   - request-light: distinct tiny searches with fresh idempotency keys,
//     where the fixed per-request costs (decode, nest building, three
//     fsynced journal appends, encode) are a large share;
//   - repeat-hot: repeats of a primed 16-request working set, half
//     replaying a journaled idempotency key and half answered from the
//     result cache under a fresh key; no search runs.
//
// BENCHMARK.json runs search-heavy and request-light. repeat-hot runs by
// name or with -workload all: on a shared two-core host its
// sub-millisecond tail and its rate of thousands of requests per second
// follow the host's scheduling noise (p99 from 0.8 to 5 ms between runs
// of one build) more than the program, beyond any bound a regression
// gate could use.
//
// With -trace 0 it prints the end-to-end metrics (throughput, median and
// tail latency, quality of the returned tiles, set-up time, peak memory);
// with -trace 1 it replays a fixed prefix of the same request stream
// serially through an in-process server and prints per-layer metrics, the
// share of request time per layer, and exact work counters. Every
// response is checked; any failure makes the exit status non-zero.
//
// Usage (from the repository root; builds tilingd and this command first):
//
//	bash tilebench/run.sh --workload search-heavy --seed 1 --seconds 35 --trace 0
//	bash tilebench/run.sh --workload all --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics":{name:{value,unit}}}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// clients is the closed loop's client count: two, like two build jobs
// waiting for tiles on a two-core host. The daemon's default concurrency
// is min(4, NumCPU), so nothing is shed at this load.
const clients = 2

// bench holds one invocation's settings.
type bench struct {
	daemonBin string
	workDir   string
	seed      uint64
	seconds   time.Duration
	sources   []string
	client    *http.Client
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome.
type result struct {
	attempted, failed int
	failures          []string
	names             []string
	metrics           map[string]metric
	report            map[string]any
}

func (r *result) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) correct() bool { return r.failed == 0 && len(r.failures) == 0 }

func main() {
	var (
		wl      = flag.String("workload", "", "search-heavy, request-light, repeat-hot, or all")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds = flag.Int("seconds", 35, "length of the timed window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics against the daemon; 1: per-layer metrics from the serial traced run")
		daemon  = flag.String("daemon", "", "path of the tilingd binary")
		work    = flag.String("work", filepath.Join(".bench_build", "tilebench", "work"), "scratch directory for state directories (removed afterwards)")
	)
	flag.Parse()
	ok, err := run(*wl, *seed, *seconds, *trace, *daemon, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tilebench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run measures the selected workloads and prints their results; ok is
// false when any response failed its check.
func run(wl string, seed uint64, seconds, trace int, daemonBin, work string) (ok bool, err error) {
	var selected []workload
	if wl == "all" {
		selected = workloads
	} else if w, ok := findWorkload(wl); ok {
		selected = []workload{w}
	} else {
		return false, fmt.Errorf("unknown workload %q", wl)
	}
	if trace != 0 && trace != 1 {
		return false, fmt.Errorf("-trace must be 0 or 1")
	}
	if seconds < 1 {
		return false, fmt.Errorf("-seconds must be at least 1")
	}
	if trace == 0 {
		if _, err := os.Stat(daemonBin); err != nil {
			return false, fmt.Errorf("tilingd binary: %w", err)
		}
	}
	sources, err := loadSources(".")
	if err != nil {
		return false, err
	}
	if err := os.RemoveAll(work); err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	b := &bench{
		daemonBin: daemonBin, workDir: work, seed: seed,
		seconds: time.Duration(seconds) * time.Second, sources: sources,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
	}
	defer b.client.CloseIdleConnections()

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	final := &result{metrics: map[string]metric{}}
	for _, w := range selected {
		fmt.Fprintf(out, "host: %s\n", mustJSON(hostBlock(w, seed, seconds, trace)))
		// Start from a quiet disk: flush what earlier runs left dirty.
		syscall.Sync()
		var r *result
		if trace == 1 {
			r, err = b.runTraced(w)
		} else {
			r, err = b.runEndToEnd(w)
		}
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(out, w, r)
		final.attempted += r.attempted
		final.failed += r.failed
		final.failures = append(final.failures, r.failures...)
		for _, name := range r.names {
			key := name
			if len(selected) > 1 {
				key = w.name + "/" + name
			}
			final.metrics[key] = r.metrics[name]
		}
	}
	fmt.Fprintf(out, "%s\n", mustJSON(map[string]any{
		"correct":   final.correct(),
		"attempted": final.attempted,
		"failed":    final.failed,
		"metrics":   final.metrics,
	}))
	return final.correct(), nil
}

// printResult writes one workload's human-readable block.
func printResult(out *bufio.Writer, w workload, r *result) {
	fmt.Fprintf(out, "== %s (attempted %d, failed %d, fail_ratio %g)\n",
		w.name, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, f := range r.failures {
		fmt.Fprintf(out, "FAIL %s\n", f)
	}
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(out, "%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if r.report != nil {
		fmt.Fprintf(out, "report: %s\n", mustJSON(r.report))
	}
}

// hostBlock records what the numbers were measured on and with.
func hostBlock(w workload, seed uint64, seconds, trace int) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":        runtime.NumCPU(),
		"cpu":          model,
		"go":           runtime.Version(),
		"daemon_flags": strings.Join(daemonFlags(w), " ") + " -state-dir <fresh dir>",
		"workload":     w.name,
		"seed":         seed,
		"seconds":      seconds,
		"clients":      clients,
		"trace":        trace,
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
