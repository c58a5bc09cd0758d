package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// The golden suite pins the solver against the exact outputs of the
// pre-columnar (PR ≤ 9) implementation: every truth, weight, objective
// and confidence value is stored as its Float64bits and compared
// bit-for-bit. Unlike the self-consistency equivalence grid — which
// only proves every worker budget agrees with the sequential run — the
// goldens prove the rewritten solver agrees with the solver that
// produced them. Regenerating them (-update-golden) is a semantic
// change and needs the same scrutiny as editing an algorithm.

var updateGolden = flag.Bool("update-golden", false, "rewrite the solver golden files from the current implementation")

// goldenCase is one (dataset, config) cell of the pinned grid. Datasets
// come from the equivalence grid's synthesize so the goldens and the
// worker-equivalence suite exercise the same data shapes.
type goldenCase struct {
	name string
	data equivCase
	seed int64
	// cats sizes the categorical properties' dictionaries (see
	// synthesizeCats); nil gives every one five categories.
	cats []int
	cfg  func(d *data.Dataset) Config
}

func goldenGrid() []goldenCase {
	return []goldenCase{
		{
			name: "mixed-default",
			data: equivCase{"mixed", 2, 2, 12, 250, 0.3},
			seed: 101,
			cfg:  func(*data.Dataset) Config { return Config{} },
		},
		{
			name: "continuous-default",
			data: equivCase{"continuous", 3, 0, 10, 200, 0.2},
			seed: 102,
			cfg:  func(*data.Dataset) Config { return Config{} },
		},
		{
			name: "categorical-default",
			data: equivCase{"categorical", 0, 3, 8, 200, 0.2},
			seed: 103,
			cfg:  func(*data.Dataset) Config { return Config{} },
		},
		{
			name: "mixed-squaredprob-expsum",
			data: equivCase{"mixed", 2, 2, 12, 250, 0.3},
			seed: 101,
			cfg: func(*data.Dataset) Config {
				return Config{
					ContinuousLoss:  loss.NormalizedSquared{},
					CategoricalLoss: loss.SquaredProb{},
					Scheme:          reg.ExpSum{},
				}
			},
		},
		{
			name: "mixed-catd-confidence",
			data: equivCase{"mixed", 2, 2, 12, 250, 0.3},
			seed: 101,
			cfg: func(*data.Dataset) Config {
				return Config{Scheme: reg.CATD{}, ComputeConfidence: true}
			},
		},
		{
			name: "mixed-groups",
			data: equivCase{"mixed", 2, 2, 12, 250, 0.3},
			seed: 101,
			cfg: func(*data.Dataset) Config {
				return Config{PropertyGroups: [][]int{{0, 2}, {1, 3}}}
			},
		},
		{
			name: "mixed-known-truths",
			data: equivCase{"mixed", 2, 2, 9, 200, 0.25},
			seed: 104,
			cfg: func(d *data.Dataset) Config {
				known := data.NewTableFor(d)
				for e := 0; e < d.NumEntries(); e += 17 {
					if d.Prop(d.EntryProp(e)).Type == data.Categorical {
						known.Set(e, data.Cat(1))
					} else {
						known.Set(e, data.Float(42))
					}
				}
				return Config{KnownTruths: known}
			},
		},
		{
			// Dictionaries of 2 and 7 categories: a probabilistic
			// entry's distribution must span exactly its own
			// property's categories, never the widest dictionary's.
			name: "mixed-squaredprob-catsizes",
			data: equivCase{"mixed", 1, 2, 10, 200, 0.25},
			seed: 106,
			cats: []int{2, 7},
			cfg: func(*data.Dataset) Config {
				return Config{CategoricalLoss: loss.SquaredProb{}}
			},
		},
		{
			name: "mixed-editdist-huber",
			data: equivCase{"mixed", 1, 1, 8, 150, 0.3},
			seed: 105,
			cfg: func(*data.Dataset) Config {
				return Config{
					ContinuousLoss:  loss.Huber{},
					CategoricalLoss: loss.EditDistance{},
				}
			},
		},
	}
}

// dumpResult renders a Result into the canonical golden text: one line
// per pinned quantity, floats as 0x%016x Float64bits. The dump is the
// unit of comparison — the golden test is a byte equality check.
func dumpResult(d *data.Dataset, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iterations %d\n", res.Iterations)
	fmt.Fprintf(&b, "converged %t\n", res.Converged)
	for i, o := range res.Objective {
		fmt.Fprintf(&b, "objective %d 0x%016x\n", i, math.Float64bits(o))
	}
	for k, w := range res.Weights {
		fmt.Fprintf(&b, "weight %d 0x%016x\n", k, math.Float64bits(w))
	}
	for g := range res.GroupWeights {
		for k, w := range res.GroupWeights[g] {
			fmt.Fprintf(&b, "gweight %d %d 0x%016x\n", g, k, math.Float64bits(w))
		}
	}
	for e := 0; e < d.NumEntries(); e++ {
		v, ok := res.Truths.Get(e)
		if !ok {
			continue
		}
		if d.Prop(d.EntryProp(e)).Type == data.Categorical {
			fmt.Fprintf(&b, "truth %d cat %d\n", e, v.C)
		} else {
			fmt.Fprintf(&b, "truth %d cont 0x%016x\n", e, math.Float64bits(v.F))
		}
	}
	for e, c := range res.Confidence {
		fmt.Fprintf(&b, "conf %d 0x%016x\n", e, math.Float64bits(c))
	}
	return b.String()
}

// diffLine locates the first differing line between two dumps for a
// readable failure message.
func diffLine(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(wl), len(gl))
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".golden")
}

// TestGoldenBitIdentity runs every grid cell at several worker budgets
// and requires the dump to match the committed golden byte for byte.
func TestGoldenBitIdentity(t *testing.T) {
	for _, gc := range goldenGrid() {
		t.Run(gc.name, func(t *testing.T) {
			d := synthesizeCats(gc.data, gc.seed, gc.cats)
			cfg := gc.cfg(d)
			cfg.Workers = 1
			res, err := Run(d, cfg)
			if err != nil {
				t.Fatalf("sequential run: %v", err)
			}
			dump := dumpResult(d, res)
			path := goldenPath(gc.name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(dump))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update-golden only if the change is intentional): %v", err)
			}
			if string(want) != dump {
				t.Fatalf("sequential output diverged from committed golden: %s", diffLine(string(want), dump))
			}
			// The committed golden also pins every parallel budget: the
			// worker grid must reproduce the same bytes.
			for _, w := range []int{2, 8} {
				pcfg := gc.cfg(d)
				pcfg.Workers = w
				pres, err := Run(d, pcfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if pd := dumpResult(d, pres); pd != dump {
					t.Fatalf("workers=%d diverged from golden: %s", w, diffLine(dump, pd))
				}
			}
		})
	}
}
