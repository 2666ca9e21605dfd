package main

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/cme"
	"repro/internal/iterspace"
	"repro/internal/sampling"
)

// Re-scoring draws its own sample, independent of the searches' 164-point
// (or smaller) samples and of the workload seed, and larger, so the
// reported quality is a property of the returned tiles alone.
const (
	qualityPoints = 1000
	qualitySeed   = 20021
)

// scored is one response to re-score.
type scored struct {
	shape *shape
	tile  []int64
	order []int
}

// space is the nest's iteration space traversed under the answer's tile
// (and tile-loop order, when set).
func (s scored) space() iterspace.Space {
	if s.order != nil {
		return iterspace.NewPermutedTiled(s.shape.box, s.tile, s.order)
	}
	return iterspace.NewTiled(s.shape.box, s.tile)
}

// replacementPct is the replacement-miss ratio, in percent, of the
// answer's tiled nest, measured by the CME point solver on the fixed
// re-scoring sample.
func replacementPct(s scored) (float64, error) {
	an, err := cme.NewAnalyzer(s.shape.nest, s.space(), s.shape.cfg)
	if err != nil {
		return 0, err
	}
	sample := sampling.Draw(s.shape.box, qualityPoints, rngFor(qualitySeed, 0))
	st, err := sample.EvaluateWith(context.Background(), an.WorkerPool(runtime.NumCPU()))
	if err != nil {
		return 0, err
	}
	return 100 * st.ReplacementRatio(), nil
}

// meanReplacementPct re-scores every response and averages; identical
// (nest, tile, order) answers are scored once.
func meanReplacementPct(items []scored) (float64, error) {
	if len(items) == 0 {
		return 0, fmt.Errorf("no responses to re-score")
	}
	memo := map[string]float64{}
	sum := 0.0
	for _, it := range items {
		key := fmt.Sprintf("%p|%v|%v", it.shape, it.tile, it.order)
		v, ok := memo[key]
		if !ok {
			var err error
			if v, err = replacementPct(it); err != nil {
				return 0, err
			}
			memo[key] = v
		}
		sum += v
	}
	return sum / float64(len(items)), nil
}
