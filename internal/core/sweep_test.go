package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
)

// countingContinuous is the default continuous loss without its kernel
// interface, counting Deviation calls — one per claim scored.
type countingContinuous struct{ n *atomic.Int64 }

func (countingContinuous) Name() string { return "counting-absolute" }

func (countingContinuous) Truth(vals, ws []float64) float64 {
	return loss.NormalizedAbsolute{}.Truth(vals, ws)
}

func (c countingContinuous) Deviation(truth, obs, std float64) float64 {
	c.n.Add(1)
	return loss.NormalizedAbsolute{}.Deviation(truth, obs, std)
}

// countingCategorical is the default categorical loss without its kernel
// interface, counting Deviation calls.
type countingCategorical struct{ n *atomic.Int64 }

func (countingCategorical) Name() string { return "counting-zero-one" }

func (countingCategorical) Truth(obs []int, ws []float64, p *data.Property) (int, []float64) {
	return loss.ZeroOne{}.Truth(obs, ws, p)
}

func (c countingCategorical) Deviation(truth int, dist []float64, obs int, p *data.Property) float64 {
	c.n.Add(1)
	return loss.ZeroOne{}.Deviation(truth, dist, obs, p)
}

// TestRunScoringPasses pins the pass structure of a run: Step II's pass
// also scores the truths it chooses, so a run of I iterations scores
// every claim exactly I+1 times — once per truth pass (the
// initialization's included), or, with InitTruths, once in the seeded
// truths' own scoring pass and once per iteration — at any worker
// budget. A truth-only pass (AggregateTruths) scores nothing.
func TestRunScoringPasses(t *testing.T) {
	d := synthesize(equivCase{"mixed", 2, 2, 8, 300, 0.3}, 46)
	p := Prepare(d)
	claims := int64(d.NumObservations())
	seed, err := p.Run(Config{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	losses := Config{
		ContinuousLoss:  countingContinuous{&n},
		CategoricalLoss: countingCategorical{&n},
	}
	for _, workers := range []int{1, 4} {
		for _, init := range []*data.Table{nil, seed.Truths} {
			for _, iters := range []int{1, 3} {
				cfg := losses
				cfg.MaxIters, cfg.Tol, cfg.Workers, cfg.InitTruths = iters, math.Inf(-1), workers, init
				n.Store(0)
				res, err := p.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Iterations != iters {
					t.Fatalf("ran %d iterations, want %d", res.Iterations, iters)
				}
				name := fmt.Sprintf("workers=%d seeded=%t iters=%d", workers, init != nil, iters)
				if got, want := n.Load(), int64(iters+1)*claims; got != want {
					t.Errorf("%s: %d deviations scored, want %d (%d claims × %d passes)", name, got, want, claims, iters+1)
				}
			}
		}
		n.Store(0)
		cfg := losses
		cfg.Workers = workers
		p.AggregateTruths(seed.Weights, cfg)
		if got := n.Load(); got != 0 {
			t.Errorf("workers=%d: AggregateTruths scored %d deviations, want 0", workers, got)
		}
	}
}
