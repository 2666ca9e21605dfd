package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/ir"
	"repro/internal/iterspace"
	"repro/internal/kernels"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/tiling"
)

// shape is the benchmark's own view of a request's loop nest: what a
// legal answer must fit.
type shape struct {
	nest *ir.Nest
	box  *iterspace.Box
	cfg  cache.Config
}

// checker validates daemon responses. A response fails when it is not a
// 200, is degraded or a fallback, carries a tile outside [1, extent] in
// any dimension (or an order that is not a permutation), or repeats an
// earlier request whose response bytes differ from the first ones
// recorded. Safe for concurrent use.
type checker struct {
	mu     sync.Mutex
	shapes map[string]*shape
	// first maps a request body to the first answer recorded for it;
	// byte-identical requests must be answered byte-identically.
	first map[string]answer
}

// answer is a validated response: its exact bytes and decoded form.
type answer struct {
	body []byte
	resp *server.TileResponse
}

func newChecker() *checker {
	return &checker{shapes: map[string]*shape{}, first: map[string]answer{}}
}

// shapeOf builds (once) the nest a request names.
func (c *checker) shapeOf(req server.TileRequest) (*shape, error) {
	id := fmt.Sprintf("%s|%d|%s|%s", req.Kernel, req.Size, req.Source, req.Cache)
	c.mu.Lock()
	s, ok := c.shapes[id]
	c.mu.Unlock()
	if ok {
		return s, nil
	}
	nest, err := buildNest(req)
	if err != nil {
		return nil, err
	}
	box, err := tiling.Box(nest)
	if err != nil {
		return nil, err
	}
	cfg, err := cliutil.ParseCache(req.Cache)
	if err != nil {
		return nil, err
	}
	s = &shape{nest: nest, box: box, cfg: cfg}
	c.mu.Lock()
	c.shapes[id] = s
	c.mu.Unlock()
	return s, nil
}

// buildNest instantiates the nest a request names, as the daemon does.
func buildNest(req server.TileRequest) (*ir.Nest, error) {
	if req.Source != "" {
		prog, err := parser.ParseString(req.Source, "request")
		if err != nil {
			return nil, err
		}
		return prog.Nest, nil
	}
	k, ok := kernels.Get(req.Kernel)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", req.Kernel)
	}
	return k.Instance(req.Size)
}

// check validates one response to j and returns it decoded. A
// byte-identical repeat of an answer already validated is not decoded
// again; the first answer's decoded form is returned.
func (c *checker) check(j job, status int, body []byte) (*server.TileResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	c.mu.Lock()
	prev, seen := c.first[string(j.body)]
	c.mu.Unlock()
	if seen {
		if !bytes.Equal(prev.body, body) {
			return nil, fmt.Errorf("repeat of %s answered with different bytes", j.body)
		}
		return prev.resp, nil
	}
	var resp server.TileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("undecodable response: %v", err)
	}
	if resp.Degraded || resp.Fallback {
		return nil, fmt.Errorf("degraded response (stopped=%s, fallback=%v)", resp.Stopped, resp.Fallback)
	}
	s, err := c.shapeOf(j.req)
	if err != nil {
		return nil, err
	}
	if err := legal(s.box, resp.Tile, resp.Order); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Two clients may race to record the first answer for one body.
	if prev, seen := c.first[string(j.body)]; seen {
		if !bytes.Equal(prev.body, body) {
			return nil, fmt.Errorf("repeat of %s answered with different bytes", j.body)
		}
		return prev.resp, nil
	}
	c.first[string(j.body)] = answer{body: bytes.Clone(body), resp: &resp}
	return &resp, nil
}

// legal reports whether tile fits the nest: one size per loop, each in
// [1, extent], and order (when present) a permutation of the loops.
func legal(box *iterspace.Box, tile []int64, order []int) error {
	k := box.NumCoords()
	if len(tile) != k {
		return fmt.Errorf("tile %v has %d sizes for a depth-%d nest", tile, len(tile), k)
	}
	for d, t := range tile {
		if t < 1 || t > box.Extent(d) {
			return fmt.Errorf("tile %v: size %d of loop %d outside [1, %d]", tile, t, d, box.Extent(d))
		}
	}
	if order == nil {
		return nil
	}
	if len(order) != k {
		return fmt.Errorf("order %v has %d entries for a depth-%d nest", order, len(order), k)
	}
	seen := make([]bool, k)
	for _, o := range order {
		if o < 0 || o >= k || seen[o] {
			return fmt.Errorf("order %v is not a permutation", order)
		}
		seen[o] = true
	}
	return nil
}
