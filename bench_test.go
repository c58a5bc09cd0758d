package crh_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (each executes the corresponding experiment end to end at
// small scale and reports its cost), plus micro-benchmarks of the moving
// parts (solver, incremental processor, MapReduce engine, baselines).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The rendered tables themselves come from cmd/crhbench; these benchmarks
// exist so the cost of every experiment is tracked alongside the code.

import (
	"bytes"
	"io"
	"testing"

	crh "github.com/crhkit/crh"
	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/experiments"
)

// benchExperiment runs one experiment per iteration, discarding output.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Registry()[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Run(experiments.ScaleSmall).Render(io.Discard)
	}
}

// One benchmark per paper table/figure.

func BenchmarkTable1DatasetStats(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2RealWorld(b *testing.B)          { benchExperiment(b, "table2") }
func BenchmarkFig1SourceReliability(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkTable3SimulatedStats(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkTable4Simulated(b *testing.B)          { benchExperiment(b, "table4") }
func BenchmarkFig2ReliableSourcesAdult(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig3ReliableSourcesBank(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkTable5Incremental(b *testing.B)        { benchExperiment(b, "table5") }
func BenchmarkFig4WeightTrajectories(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5TimeWindow(b *testing.B)           { benchExperiment(b, "fig5") }
func BenchmarkFig6DecayRate(b *testing.B)            { benchExperiment(b, "fig6") }
func BenchmarkTable6Scalability(b *testing.B)        { benchExperiment(b, "table6") }
func BenchmarkFig7ScalingAxes(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig8Reducers(b *testing.B)             { benchExperiment(b, "fig8") }

// Component micro-benchmarks.

// BenchmarkCRHWeather measures one batch CRH fusion of the paper-scale
// weather data set (9 sources, 1,920 entries, ≈16k observations).
func BenchmarkCRHWeather(b *testing.B) {
	d, _ := crh.GenerateWeather(crh.WeatherOptions{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crh.Run(d, crh.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRHAdult measures batch CRH on growing Adult-style inputs —
// the linearity claim of Section 2.5 ("running time is linear with
// respect to the total number of observations").
func BenchmarkCRHAdult(b *testing.B) {
	for _, rows := range []int{1000, 2000, 4000, 8000} {
		d, _ := crh.GenerateAdult(crh.UCIOptions{Seed: 2, Rows: rows})
		b.Run(byObs(d.NumObservations()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := crh.Run(d, crh.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCRHWeatherTraced measures the same fusion as
// BenchmarkCRHWeather with a JSONL iteration trace attached — compare
// the two to bound the cost of solver tracing (the nil-hook path in
// BenchmarkCRHWeather is the ≤2%-overhead reference).
func BenchmarkCRHWeatherTraced(b *testing.B) {
	d, _ := crh.GenerateWeather(crh.WeatherOptions{Seed: 1})
	opts := crh.Options{Trace: crh.NewJSONLTrace(io.Discard)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crh.Run(d, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkICRHWeather measures the one-pass incremental variant on the
// same weather workload as BenchmarkCRHWeather — the Table 5 speedup.
func BenchmarkICRHWeather(b *testing.B) {
	d, _ := crh.GenerateWeather(crh.WeatherOptions{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crh.RunStream(d, 1, crh.StreamOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadDatasetFlight measures decoding a Flight simulation of
// 584,072 claims from the TSV format: perfbench's resolve-cold upload at
// its seed 1 (generator seed 256). lines/op is the input's line count,
// for reading allocs/op as allocations per line.
func BenchmarkReadDatasetFlight(b *testing.B) {
	d, _ := crh.GenerateFlight(crh.FlightOptions{Seed: 256})
	var buf bytes.Buffer
	if err := crh.WriteDataset(&buf, d, nil); err != nil {
		b.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte{'\n'})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := crh.ReadDataset(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(lines), "lines/op")
}

// BenchmarkRunFlight measures one solve of perfbench's resolve-cold
// upload (a Flight simulation of 584,072 claims, generator seed 256),
// decoded from the TSV format as crhd holds it, prepared once and run
// at one worker with resolve-cold's first MaxIters: the solver's
// per-claim cost, in-process. The squared-prob subcase scores each
// categorical claim against the entry's distribution.
func BenchmarkRunFlight(b *testing.B) {
	g, _ := crh.GenerateFlight(crh.FlightOptions{Seed: 256})
	var buf bytes.Buffer
	if err := crh.WriteDataset(&buf, g, nil); err != nil {
		b.Fatal(err)
	}
	d, _, err := crh.ReadDataset(&buf)
	if err != nil {
		b.Fatal(err)
	}
	p := core.Prepare(d)
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"default", core.Config{}},
		{"squared-prob", core.Config{CategoricalLoss: crh.ProbabilisticLoss()}},
	} {
		cfg := c.cfg
		cfg.Workers, cfg.MaxIters = 1, 21
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelCRH measures the MapReduce fusion end to end.
func BenchmarkParallelCRH(b *testing.B) {
	d, _ := crh.GenerateAdult(crh.UCIOptions{Seed: 3, Rows: 2000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crh.RunParallel(d, crh.ParallelOptions{Reducers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines measures each comparison method on the weather data
// set, the workload of Table 2's first column.
func BenchmarkBaselines(b *testing.B) {
	d, _ := crh.GenerateWeather(crh.WeatherOptions{Seed: 1})
	for _, m := range crh.Baselines() {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Resolve(d)
			}
		})
	}
}

func byObs(n int) string {
	switch {
	case n >= 1_000_000:
		return "obs=" + itoa(n/1_000_000) + "M"
	case n >= 1_000:
		return "obs=" + itoa(n/1_000) + "k"
	default:
		return "obs=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblations measures the design choices DESIGN.md calls out, on
// the weather workload: each variant reports its runtime plus its
// accuracy (errRate / MNAD) as custom metrics, so both the cost and the
// quality impact of every choice are tracked.
func BenchmarkAblations(b *testing.B) {
	d, gt := crh.GenerateWeather(crh.WeatherOptions{Seed: 1})
	variants := []struct {
		name string
		opts crh.Options
	}{
		{"default/median+vote+expmax", crh.Options{}},
		{"loss/weighted-mean", crh.Options{ContinuousLoss: crh.SquaredLoss()}},
		{"loss/probabilistic-categorical", crh.Options{CategoricalLoss: crh.ProbabilisticLoss()}},
		{"loss/ensemble", crh.Options{ContinuousLoss: crh.EnsembleLoss(nil, crh.AbsoluteLoss(), crh.SquaredLoss())}},
		{"loss/huber", crh.Options{ContinuousLoss: crh.HuberLoss(0)}},
		{"weights/exp-sum", crh.Options{Scheme: crh.ExpSumWeights()}},
		{"weights/best-source", crh.Options{Scheme: crh.BestSourceWeights()}},
		{"weights/top-3", crh.Options{Scheme: crh.TopJWeights(3)}},
		{"norm/no-property-normalization", crh.Options{DisablePropNormalization: true}},
		{"norm/no-count-normalization", crh.Options{DisableCountNormalization: true}},
		{"weights/per-property-groups", crh.Options{PropertyGroups: [][]int{{0, 1}, {2}}}},
		{"weights/catd-confidence-aware", crh.Options{Scheme: crh.CATDWeights(0)}},
		{"parallelism/4-workers", crh.Options{Workers: 4}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var last *crh.Result
			for i := 0; i < b.N; i++ {
				res, err := crh.Run(d, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			m := crh.Evaluate(d, last.Truths, gt)
			b.ReportMetric(m.ErrorRate, "errRate")
			b.ReportMetric(m.MNAD, "MNAD")
			b.ReportMetric(float64(last.Iterations), "iters")
		})
	}
}
