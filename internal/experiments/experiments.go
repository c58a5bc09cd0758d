// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 3). Each experiment builds its data sets through
// internal/synth, runs CRH and the baselines, and renders the same rows or
// series the paper reports. Experiments run at two scales: ScaleSmall
// (seconds; used by tests and benchmarks) and ScaleFull (the paper's data
// set sizes).
package experiments

import (
	"fmt"
	"time"

	"github.com/crhkit/crh/internal/baseline"
	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/eval"
	"github.com/crhkit/crh/internal/synth"
)

// Scale selects data set sizes.
type Scale int

const (
	// ScaleSmall shrinks the large simulations so every experiment runs
	// in seconds while preserving the conflict structure.
	ScaleSmall Scale = iota
	// ScaleFull uses the paper's data set sizes (Table 1 / Table 3).
	ScaleFull
)

// seed fixed for all experiments so reported numbers are reproducible.
const seed = 2014 // SIGMOD year, for flavour

// Weather returns the weather data set (same size at both scales — the
// real one was small).
func WeatherData(Scale) (*data.Dataset, *data.Table) {
	return synth.Weather(synth.WeatherConfig{Seed: seed})
}

// StockData returns the stock data set at the given scale.
func StockData(s Scale) (*data.Dataset, *data.Table) {
	cfg := synth.StockConfig{Seed: seed + 1}
	if s == ScaleFull {
		cfg.Symbols, cfg.Days = 1000, 21
	} else {
		cfg.Symbols, cfg.Days = 60, 7
	}
	return synth.Stock(cfg)
}

// FlightData returns the flight data set at the given scale.
func FlightData(s Scale) (*data.Dataset, *data.Table) {
	cfg := synth.FlightConfig{Seed: seed + 2}
	if s == ScaleFull {
		cfg.Flights, cfg.Days = 1200, 31
	} else {
		cfg.Flights, cfg.Days = 60, 8
	}
	return synth.Flight(cfg)
}

// AdultData returns the Adult-equivalent simulation at the given scale.
func AdultData(s Scale) (*data.Dataset, *data.Table) {
	cfg := synth.UCIConfig{Seed: seed + 3}
	if s != ScaleFull {
		cfg.Rows = 2000
	}
	return synth.Adult(cfg)
}

// BankSeed is the Bank simulation's generator seed.
const BankSeed = seed + 4

// BankData returns the Bank-equivalent simulation at the given scale.
func BankData(s Scale) (*data.Dataset, *data.Table) {
	cfg := synth.UCIConfig{Seed: BankSeed}
	if s != ScaleFull {
		cfg.Rows = 2000
	}
	return synth.Bank(cfg)
}

// CRH wraps the core solver as a baseline.Method so the harness can run
// the full method suite uniformly.
type CRH struct {
	Cfg core.Config
}

// Name implements baseline.Method.
func (CRH) Name() string { return "CRH" }

// Resolve implements baseline.Method.
func (c CRH) Resolve(d *data.Dataset) (*data.Table, []float64) {
	res, err := core.Run(d, c.Cfg)
	if err != nil {
		// The harness only feeds non-empty datasets; an error here is
		// a bug, not an input condition.
		panic(fmt.Sprintf("experiments: CRH failed: %v", err))
	}
	return res.Truths, res.Weights
}

// Methods returns CRH followed by the ten baselines — the Table 2 roster.
func Methods() []baseline.Method {
	return append([]baseline.Method{CRH{}}, baseline.All()...)
}

// MeasuredRun scores one method on one data set and reports the runtime.
type MeasuredRun struct {
	Method  string
	Metrics eval.Metrics
	Elapsed time.Duration
	// Reliability holds the method's source scores (nil when the
	// method does not estimate them).
	Reliability []float64
}

// RunMethod executes a method and evaluates it against ground truth.
func RunMethod(m baseline.Method, d *data.Dataset, gt *data.Table) MeasuredRun {
	start := time.Now()
	truths, rel := m.Resolve(d)
	elapsed := time.Since(start)
	return MeasuredRun{
		Method:      m.Name(),
		Metrics:     eval.Evaluate(d, truths, gt),
		Elapsed:     elapsed,
		Reliability: rel,
	}
}
