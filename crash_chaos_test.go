package cmetiling_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// buildTilingd compiles the daemon once per test.
func buildTilingd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tilingd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tilingd")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build tilingd: %v\n%s", err, out)
	}
	return bin
}

// startTilingd launches the daemon and parses its listen address from
// stderr. The returned stop function is safe to call more than once.
func startTilingd(t *testing.T, bin string, args ...string) (*exec.Cmd, string, func()) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start tilingd: %v", err)
	}
	stop := func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
	addrCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 4096)
		var acc strings.Builder
		for {
			n, rerr := stderr.Read(buf)
			acc.Write(buf[:n])
			if i := strings.Index(acc.String(), "listening on "); i >= 0 {
				rest := acc.String()[i+len("listening on "):]
				if j := strings.IndexByte(rest, '\n'); j >= 0 {
					addrCh <- strings.TrimSpace(rest[:j])
					break
				}
			}
			if rerr != nil {
				addrCh <- ""
				return
			}
		}
		// Keep draining so the daemon never blocks on stderr.
		for {
			if _, rerr := stderr.Read(buf); rerr != nil {
				return
			}
		}
	}()
	select {
	case addr := <-addrCh:
		if addr == "" {
			stop()
			t.Fatalf("tilingd exited before announcing its address")
		}
		return cmd, addr, stop
	case <-time.After(20 * time.Second):
		stop()
		t.Fatalf("tilingd never announced its address")
		return nil, "", nil
	}
}

// killRequest is slow by construction (workers:1 plus an injected 25ms
// stall per evaluation gives the kill a multi-second window) yet fully
// deterministic for its seed: the stall delays evaluations without
// changing any result.
const killRequest = `{"kernel":"MM","size":48,"cache":"8k","seed":7,"maxEvaluations":300,"timeoutMs":60000,"workers":1}`

// postTile sends one tile request with an optional idempotency key.
func postTile(t *testing.T, addr, body, key string) (int, []byte, http.Header, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/tile", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, b, resp.Header, nil
}

// expvarCounter reads one counter from /debug/vars (0 when absent).
func expvarCounter(addr, name string) float64 {
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(vars["tilingd"], &m); err != nil {
		return 0
	}
	var v float64
	_ = json.Unmarshal(m[name], &v)
	return v
}

// TestCrashChaosKillMidSearch is the durability tentpole end to end on
// the real binary: SIGKILL the daemon mid-search, restart it over the
// same state dir, and require that (a) the journal replays the accepted
// request, (b) the idempotent retry is served recorded bytes, and (c)
// those bytes are bit-identical to a crash-free run of the same request.
func TestCrashChaosKillMidSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTilingd(t)

	// Reference: the uninterrupted run on a pristine daemon.
	_, refAddr, stopRef := startTilingd(t, bin)
	defer stopRef()
	st, want, _, err := postTile(t, refAddr, killRequest, "")
	if err != nil || st != http.StatusOK {
		t.Fatalf("reference run: status %d err %v", st, err)
	}
	stopRef()

	state := t.TempDir()
	victim, addr, stopVictim := startTilingd(t, bin,
		"-state-dir", state,
		"-checkpoint-interval", "0",
		"-fault-spec", "eval.stall:stall=25ms")
	defer stopVictim()

	// Fire the request; the client dies with the server, which is fine —
	// the journal, not the connection, owns the request now.
	go func() { _, _, _, _ = postTile(t, addr, killRequest, "kill-1") }()

	// SIGKILL as soon as the first generation snapshot is on disk.
	ckpts := filepath.Join(state, "checkpoints", "*.ckpt")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m, _ := filepath.Glob(ckpts); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared under %s", ckpts)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_ = victim.Wait()

	// Restart over the same state dir (no stall fault: recovery runs at
	// full speed). The journal must replay the killed request.
	_, addr2, stopHeir := startTilingd(t, bin, "-state-dir", state)
	defer stopHeir()
	deadline = time.Now().Add(60 * time.Second)
	for expvarCounter(addr2, "journal_recovered") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("restart never recovered the journaled request")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The retry is answered the recorded bytes — and they match the
	// crash-free run exactly (fixed seed resume contract, end to end).
	st2, got, h, err := postTile(t, addr2, killRequest, "kill-1")
	if err != nil || st2 != http.StatusOK {
		t.Fatalf("retry after crash: status %d err %v", st2, err)
	}
	if src := h.Get("X-Tilingd-Cache"); src != "journal" {
		t.Fatalf("retry source = %q, want journal", src)
	}
	if string(got) != string(want) {
		t.Fatalf("post-crash response differs from crash-free run:\n%s\n%s", got, want)
	}
	// No accepted request was lost, no spurious extras were invented.
	if n := expvarCounter(addr2, "journal_recovered"); n != 1 {
		t.Fatalf("journal_recovered = %v, want 1", n)
	}
}

// TestCrashChaosSlowLorisHeaderTimeout proves the hardened http.Server
// drops a connection that dribbles its headers instead of pinning a
// goroutine forever, and that the daemon stays healthy afterwards.
func TestCrashChaosSlowLorisHeaderTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTilingd(t)
	_, addr, stop := startTilingd(t, bin, "-read-header-timeout", "300ms")
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request, then silence: the server must hang up on its own.
	if _, err := fmt.Fprintf(conn, "POST /v1/tile HTTP/1.1\r\nHost: tilingd\r\nX-Dribble: "); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		// A 408 body counts too; the point is the connection terminates.
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err2 := io.Copy(io.Discard, conn); err2 != nil && !os.IsTimeout(err2) {
			t.Logf("post-408 read: %v", err2)
		}
	} else if os.IsTimeout(err) {
		t.Fatalf("connection still open %v after partial headers", time.Since(start))
	}
	if took := time.Since(start); took > 8*time.Second {
		t.Fatalf("slow-loris connection lived %v, want < read-header-timeout + slack", took)
	}

	// The daemon is unharmed: health and a real request still work.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz after slow-loris: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d after slow-loris", resp.StatusCode)
	}
}

// TestCrashChaosCorruptJournalBoots plants garbage in the journal and
// requires the daemon to boot anyway, quarantining the damage and
// reporting it on /healthz.
func TestCrashChaosCorruptJournalBoots(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTilingd(t)
	state := t.TempDir()
	jdir := filepath.Join(state, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A segment of pure garbage plus a torn half-line.
	if err := os.WriteFile(filepath.Join(jdir, "seg-00000001.wal"),
		[]byte("not json at all\n{\"crc\":\"dead\",\"rec\":{\"op\":\"accept"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, addr, stop := startTilingd(t, bin, "-state-dir", state)
	defer stop()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("daemon refused to boot over corrupt journal: %v", err)
	}
	defer resp.Body.Close()
	var h struct {
		Status         string `json:"status"`
		JournalSkipped int    `json:"journalSkipped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.JournalSkipped != 2 {
		t.Fatalf("healthz = %+v, want ok with 2 quarantined records", h)
	}
	// And it still serves.
	st, _, _, err := postTile(t, addr, `{"kernel":"MM","size":48,"cache":"8k","seed":1,"maxEvaluations":40}`, "")
	if err != nil || st != http.StatusOK {
		t.Fatalf("tile over quarantined journal: status %d err %v", st, err)
	}
}

// TestCrashChaosSIGTERMAtStartup sends SIGTERM the moment the daemon
// prints "listening on": the drain handler must already be installed, so
// the daemon exits 0 through a drain instead of dying of the signal.
func TestCrashChaosSIGTERMAtStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTilingd(t)
	for round := 0; round < 5; round++ {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state-dir", t.TempDir())
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("start tilingd: %v", err)
		}
		t.Cleanup(func() { _ = cmd.Process.Kill() })
		// A daemon that never exits (or a drain that hangs) is killed
		// after the same 20 s startTilingd allows, closing stderr so the
		// read loop below ends and the round fails instead of blocking.
		var timedOut atomic.Bool
		deadline := time.AfterFunc(20*time.Second, func() {
			timedOut.Store(true)
			_ = cmd.Process.Kill()
		})
		var out strings.Builder
		buf := make([]byte, 4096)
		signalled := false
		for {
			n, rerr := stderr.Read(buf)
			out.Write(buf[:n])
			if !signalled && strings.Contains(out.String(), "listening on ") {
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatalf("round %d: signal: %v", round, err)
				}
				signalled = true
			}
			if rerr != nil {
				break
			}
		}
		err = cmd.Wait()
		deadline.Stop()
		if timedOut.Load() {
			t.Fatalf("round %d: daemon still running 20 s after start (signalled: %v):\n%s", round, signalled, out.String())
		}
		if !signalled {
			t.Fatalf("round %d: daemon exited before listening:\n%s", round, out.String())
		}
		if err != nil {
			t.Fatalf("round %d: SIGTERM at start-up: %v, want exit 0\n%s", round, err, out.String())
		}
		if !strings.Contains(out.String(), "drained") {
			t.Fatalf("round %d: no drain after SIGTERM at start-up:\n%s", round, out.String())
		}
	}
}
