package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// countingContinuous is the default continuous loss counting Deviation
// calls — one per claim scored.
type countingContinuous struct{ n *atomic.Int64 }

func (countingContinuous) Name() string { return "counting-absolute" }

func (countingContinuous) Truth(vals, ws, vbuf, wbuf []float64) float64 {
	return loss.NormalizedAbsolute{}.Truth(vals, ws, vbuf, wbuf)
}

func (c countingContinuous) Deviation(truth, obs, std float64) float64 {
	c.n.Add(1)
	return loss.NormalizedAbsolute{}.Deviation(truth, obs, std)
}

// countingCategorical is the default categorical loss counting
// Deviation calls.
type countingCategorical struct{ n *atomic.Int64 }

func (countingCategorical) Name() string { return "counting-zero-one" }

func (countingCategorical) NeedsDist() bool { return false }

func (countingCategorical) Truth(codes []uint32, ws []float64, votes, dist []float64, p *data.Property) int {
	return loss.ZeroOne{}.Truth(codes, ws, votes, dist, p)
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
// budget. Step scores every claim once.
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
		p.Step(seed.Weights, cfg)
		if got := n.Load(); got != claims {
			t.Errorf("workers=%d: Step scored %d deviations, want %d", workers, got, claims)
		}
	}
}

// TestStepReproducesRun: Step is the sweep each of Run's iterations
// makes, so under a run's final weights it returns the run's final
// truths, and its losses weighted by those weights sum to the run's
// last objective value — bit for bit, KnownTruths pinned as Run pins
// them.
func TestStepReproducesRun(t *testing.T) {
	d := synthesize(equivCase{"mixed", 2, 2, 9, 200, 0.25}, 11)
	known := data.NewTableFor(d)
	for e := 0; e < d.NumEntries(); e += 17 {
		if d.Prop(d.EntryProp(e)).Type == data.Categorical {
			known.Set(e, data.Cat(1))
		} else {
			known.Set(e, data.Float(42))
		}
	}
	p := Prepare(d)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"squared-prob", Config{CategoricalLoss: loss.SquaredProb{}}},
		{"catd", Config{Scheme: reg.CATD{}}},
		{"known", Config{KnownTruths: known}},
	} {
		for _, workers := range []int{1, 4} {
			cfg := c.cfg
			cfg.Workers = workers
			name := fmt.Sprintf("%s/workers=%d", c.name, workers)
			res, err := p.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			truths, losses := p.Step(res.Weights, cfg)
			for e := 0; e < d.NumEntries(); e++ {
				rv, rok := res.Truths.Get(e)
				gv, gok := truths.Get(e)
				if rok != gok || rv.C != gv.C || !bitsEq(rv.F, gv.F) {
					t.Fatalf("%s: entry %d is %+v (%t), Run's is %+v (%t)", name, e, gv, gok, rv, rok)
				}
			}
			var obj float64
			for k, w := range res.Weights {
				obj += w * losses[k]
			}
			if last := res.Objective[len(res.Objective)-1]; !bitsEq(obj, last) {
				t.Errorf("%s: Σ w·loss = %v, Run's last objective %v", name, obj, last)
			}
		}
	}
}
