// Command tilingd serves tiling decisions over HTTP/JSON: POST a kernel
// (catalog name or inline source), a cache geometry and search bounds to
// /v1/tile and get near-optimal tile sizes back. The daemon is built to
// survive sustained load: bounded admission with explicit 429 load
// shedding, per-request deadlines that degrade to best-so-far tiles, a
// singleflight-deduplicated result cache, a process-wide shared
// evaluation cache that lets related searches reuse each other's work, a
// circuit breaker that falls back to a cheap heuristic tiling when
// searches keep failing, and a SIGTERM drain that answers every accepted
// request before exiting.
//
// With -state-dir it also survives crashes: every accepted request is
// journaled durably before its search runs, in-flight searches persist
// resumable generation-boundary checkpoints, and a restart replays the
// journal — duplicate idempotent retries (the Idempotency-Key header)
// get the recorded response bytes, interrupted searches resume from
// their latest snapshot, and torn or corrupt journal records are
// quarantined with telemetry instead of refusing to boot.
//
// Usage:
//
//	tilingd -addr :8080 -state-dir /var/lib/tilingd
//	curl -s localhost:8080/v1/tile -H 'Idempotency-Key: job-17' -d '{"kernel":"MM","size":500,"cache":"8k","seed":1}'
//	curl -s localhost:8080/v1/tile/batch -d '{"requests":[{"kernel":"MM","cache":"8k","seed":1},{"kernel":"T2D","cache":"8k","seed":1}]}'
//
// Endpoints: POST /v1/tile, POST /v1/tile/batch (NDJSON stream),
// GET /v1/kernels, GET /healthz, GET /debug/vars (expvar).
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	cmetiling "repro"
	"repro/internal/cliutil"
	"repro/internal/journal"
	"repro/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		conc       = flag.Int("concurrency", 0, "max concurrent searches (0 = min(4, NumCPU))")
		queue      = flag.Int("queue", 64, "admission queue depth; requests beyond it are shed with 429")
		defTimeout = flag.Duration("default-timeout", 30*time.Second, "per-request search deadline when the request names none")
		maxTimeout = flag.Duration("max-timeout", 2*time.Minute, "hard cap on any request's search deadline")
		stall      = flag.Duration("stall-timeout", 10*time.Second, "per-evaluation watchdog on every search")
		cacheEnt   = flag.Int("cache-entries", 512, "result-cache capacity (responses)")
		evalEnt    = flag.Int("evalcache-entries", 0, "shared evaluation-cache capacity (0 = default 32768, negative = disabled)")
		brkFails   = flag.Int("breaker-failures", 5, "consecutive search failures that trip the fallback breaker")
		brkCool    = flag.Duration("breaker-cooldown", 30*time.Second, "how long the tripped breaker serves fallback tilings before probing")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "SIGTERM grace: searches still running after this are cancelled to best-so-far")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
		islands    = flag.Int("islands", 0, "default GA island count for requests that name none (0 = single population)")
		stateDir   = flag.String("state-dir", "", "durable state directory (request journal + search checkpoints); empty disables crash recovery")
		jsync      = flag.String("journal-sync", "always", "journal append durability: always (fsync per record) or none (OS page cache)")
		ckptEvery  = flag.Duration("checkpoint-interval", 2*time.Second, "min interval between persisted snapshots of one in-flight search (0 = every generation)")
		readHdrTO  = flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout: slow-loris defense, closes connections that dribble headers")
		readTO     = flag.Duration("read-timeout", 2*time.Minute, "http.Server ReadTimeout: full request read bound (0 = unbounded)")
		writeTO    = flag.Duration("write-timeout", 0, "http.Server WriteTimeout (0 = unbounded; when set it must exceed max-timeout and the longest batch)")
		idleTO     = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
		traceOut   = flag.String("trace-out", "", "append the server and search telemetry event stream to this JSONL file")
		faultF     = flag.String("fault-spec", "", "inject deterministic faults, e.g. 'seed=1;server.accept:times=2' (chaos testing)")
		version    = cliutil.VersionFlag()
	)
	flag.Parse()
	cliutil.HandleVersion("tilingd", version)

	syncMode, err := journal.ParseSyncMode(*jsync)
	if err != nil {
		cliutil.Fatal("tilingd", err)
	}

	var faults *cmetiling.FaultPlan
	if *faultF != "" {
		var err error
		faults, err = cmetiling.ParseFaultSpec(*faultF)
		if err != nil {
			cliutil.Fatal("tilingd", err)
		}
	}

	// Telemetry: expvar always (served at /debug/vars), JSONL on request.
	recorders := []cmetiling.Recorder{cmetiling.NewExpvarSink("tilingd")}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			cliutil.Fatal("tilingd", err)
		}
		sink := cmetiling.NewJSONLSink(cmetiling.FaultWriter(f, faults, cmetiling.FaultSinkWrite))
		cliutil.AtExit(func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tilingd: trace: %v\n", err)
			}
			f.Close()
		})
		recorders = append(recorders, sink)
	}

	srv, err := server.New(server.Config{
		MaxConcurrent:      *conc,
		QueueDepth:         *queue,
		DefaultTimeout:     *defTimeout,
		MaxTimeout:         *maxTimeout,
		StallTimeout:       *stall,
		CacheEntries:       *cacheEnt,
		EvalCacheEntries:   *evalEnt,
		BreakerThreshold:   *brkFails,
		BreakerCooldown:    *brkCool,
		RetryAfter:         *retryAfter,
		DefaultIslands:     *islands,
		StateDir:           *stateDir,
		JournalSync:        syncMode,
		CheckpointInterval: *ckptEvery,
		Observer:           cmetiling.MultiRecorder(recorders...),
		Faults:             faults,
	})
	if err != nil {
		cliutil.Fatal("tilingd", err)
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	// Timeouts on every connection: a client that dribbles its headers or
	// never reads its response cannot pin a connection (and its goroutine)
	// forever.
	httpSrv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: *readHdrTO,
		ReadTimeout:       *readTO,
		WriteTimeout:      *writeTO,
		IdleTimeout:       *idleTO,
	}

	// The drain handler goes in before the listener exists: a SIGTERM
	// that arrives as soon as "listening on" is printed must drain, not
	// kill the process with the default signal action.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cliutil.Fatal("tilingd", err)
	}
	fmt.Fprintf(os.Stderr, "tilingd: listening on %s\n", ln.Addr())

	// Recovery runs beside live traffic, through the same admission gate:
	// every request the journal holds as accepted-but-unanswered is re-run
	// (resumed from its latest checkpoint when one loads) and its response
	// recorded for the client's retry.
	recoverCtx, stopRecover := context.WithCancel(context.Background())
	defer stopRecover()
	recovered := make(chan int, 1)
	go func() { recovered <- srv.Recover(recoverCtx) }()
	go func() {
		if n := <-recovered; n > 0 {
			fmt.Fprintf(os.Stderr, "tilingd: recovered %d journaled request(s)\n", n)
		}
	}()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		cliutil.Fatal("tilingd", err)
	case <-ctx.Done():
	}

	// Drain: finish (or cancel to best-so-far) every accepted request,
	// then close the listener and idle connections.
	fmt.Fprintf(os.Stderr, "tilingd: draining (grace %v)\n", *drainWait)
	stopRecover()
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	srv.Drain(dctx)
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "tilingd: shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "tilingd: drained, exiting")
	cliutil.Exit(cliutil.ExitOK)
}
