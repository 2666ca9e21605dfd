package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/server"
)

func mmJob() job {
	return newJob(server.TileRequest{Kernel: "MM", Size: 100, Cache: "8k", Seed: 7}, "")
}

func forge(t *testing.T, edit func(*server.TileResponse)) []byte {
	t.Helper()
	resp := server.TileResponse{
		Kernel: "MM", Mode: "tile", Tile: []int64{10, 20, 30},
		Stopped: "converged", Generations: 25, Evaluations: 600,
	}
	if edit != nil {
		edit(&resp)
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckerAcceptsLegalResponse(t *testing.T) {
	c := newChecker()
	resp, err := c.check(mmJob(), http.StatusOK, forge(t, nil))
	if err != nil {
		t.Fatalf("legal response rejected: %v", err)
	}
	if len(resp.Tile) != 3 {
		t.Fatalf("decoded tile %v", resp.Tile)
	}
}

func TestCheckerRejectsForgedResponses(t *testing.T) {
	for _, c := range []struct {
		name   string
		status int
		body   func(*testing.T) []byte
		want   string
	}{
		{"not 200", http.StatusTooManyRequests, func(t *testing.T) []byte { return []byte(`{"error":"overloaded"}`) }, "status 429"},
		{"degraded", http.StatusOK, func(t *testing.T) []byte {
			return forge(t, func(r *server.TileResponse) { r.Degraded, r.Quarantined = true, 2 })
		}, "degraded"},
		{"fallback", http.StatusOK, func(t *testing.T) []byte {
			return forge(t, func(r *server.TileResponse) { r.Degraded, r.Fallback, r.Stopped = true, true, "fallback" })
		}, "degraded"},
		{"tile zero", http.StatusOK, func(t *testing.T) []byte {
			return forge(t, func(r *server.TileResponse) { r.Tile = []int64{0, 20, 30} })
		}, "outside"},
		{"tile beyond extent", http.StatusOK, func(t *testing.T) []byte {
			return forge(t, func(r *server.TileResponse) { r.Tile = []int64{10, 101, 30} })
		}, "outside"},
		{"tile rank", http.StatusOK, func(t *testing.T) []byte {
			return forge(t, func(r *server.TileResponse) { r.Tile = []int64{10, 20} })
		}, "sizes"},
		{"order not a permutation", http.StatusOK, func(t *testing.T) []byte {
			return forge(t, func(r *server.TileResponse) { r.Order = []int{0, 0, 2} })
		}, "permutation"},
		{"garbage", http.StatusOK, func(t *testing.T) []byte { return []byte("{") }, "undecodable"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := newChecker().check(mmJob(), c.status, c.body(t))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want an error containing %q", err, c.want)
			}
		})
	}
}

func TestCheckerRejectsChangedRepeatBytes(t *testing.T) {
	c := newChecker()
	first := forge(t, nil)
	if _, err := c.check(mmJob(), http.StatusOK, first); err != nil {
		t.Fatal(err)
	}
	// A byte-identical repeat passes (under another key too).
	again := mmJob()
	again.key = "fresh-1"
	if _, err := c.check(again, http.StatusOK, bytes.Clone(first)); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	// A legal but different answer to the same request does not.
	changed := forge(t, func(r *server.TileResponse) { r.Tile = []int64{10, 20, 31} })
	if _, err := c.check(mmJob(), http.StatusOK, changed); err == nil || !strings.Contains(err.Error(), "different bytes") {
		t.Fatalf("changed repeat accepted: %v", err)
	}
	// A different request is not a repeat.
	other := newJob(server.TileRequest{Kernel: "MM", Size: 100, Cache: "8k", Seed: 8}, "")
	if _, err := c.check(other, http.StatusOK, changed); err != nil {
		t.Fatalf("distinct request rejected: %v", err)
	}
}
