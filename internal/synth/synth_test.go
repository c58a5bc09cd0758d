package synth

import (
	"math"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/eval"
	"github.com/crhkit/crh/internal/stats"
)

func TestRoundTo(t *testing.T) {
	cases := []struct{ v, unit, want float64 }{
		{3.7, 1, 4},
		{3.4, 1, 3},
		{-3.7, 1, -4},
		{2.26, 0.5, 2.5},
		{7.123, 0, 7.123},
	}
	for _, c := range cases {
		if got := roundTo(c.v, c.unit); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("roundTo(%v,%v) = %v, want %v", c.v, c.unit, got, c.want)
		}
	}
}

func TestGenerateWorldRespectsSchema(t *testing.T) {
	schema := Schema{
		Name: "t",
		Cols: []Col{
			{Name: "u", Type: data.Continuous, Dist: Uniform, Min: 0, Max: 10, Round: 1},
			{Name: "n", Type: data.Continuous, Dist: Normal, Mean: 100, Std: 5, Min: 80, Max: 120},
			{Name: "l", Type: data.Continuous, Dist: LogNormal, Mean: 2, Std: 0.5, Min: 0, Max: 1000},
			{Name: "c", Type: data.Categorical, Cats: []string{"a", "b"}, CatW: []float64{9, 1}},
		},
	}
	w := GenerateWorld(schema, 2000, 1)
	if w.NumObjects() != 2000 {
		t.Fatal("row count")
	}
	var aCount int
	for _, row := range w.Rows {
		if v := row[0].F; v < 0 || v > 10 || v != math.Trunc(v) {
			t.Fatalf("uniform col value %v out of contract", v)
		}
		if v := row[1].F; v < 80 || v > 120 {
			t.Fatalf("normal col value %v outside clamp", v)
		}
		if v := row[2].F; v < 0 || v > 1000 {
			t.Fatalf("lognormal col value %v outside clamp", v)
		}
		if row[3].C == 0 {
			aCount++
		}
	}
	// Weighted categories: "a" has weight 9 of 10.
	if frac := float64(aCount) / 2000; frac < 0.8 || frac > 0.98 {
		t.Fatalf("category-a fraction = %v, want ≈0.9", frac)
	}
	// Normal column mean should land near 100.
	var sum float64
	for _, row := range w.Rows {
		sum += row[1].F
	}
	if mean := sum / 2000; math.Abs(mean-100) > 1 {
		t.Fatalf("normal col mean = %v", mean)
	}
}

func TestGenerateWorldDeterministic(t *testing.T) {
	schema := AdultSchema()
	w1 := GenerateWorld(schema, 50, 7)
	w2 := GenerateWorld(schema, 50, 7)
	for i := range w1.Rows {
		for m := range w1.Rows[i] {
			if w1.Rows[i][m] != w2.Rows[i][m] {
				t.Fatal("worlds differ for same seed")
			}
		}
	}
	w3 := GenerateWorld(schema, 50, 8)
	same := true
	for i := range w1.Rows {
		for m := range w1.Rows[i] {
			if w1.Rows[i][m] != w3.Rows[i][m] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical worlds")
	}
}

func TestCorruptNoiseScalesWithGamma(t *testing.T) {
	schema := Schema{
		Name: "g",
		Cols: []Col{
			{Name: "x", Type: data.Continuous, Dist: Normal, Mean: 0, Std: 10, Min: -1000, Max: 1000},
			{Name: "c", Type: data.Categorical, Cats: []string{"a", "b", "c", "d"}},
		},
	}
	w := GenerateWorld(schema, 1500, 3)
	profiles := []SourceProfile{
		{Name: "lo", Gamma: 0.1},
		{Name: "hi", Gamma: 2.0},
	}
	d, gt := Corrupt(w, profiles, CorruptConfig{Seed: 4})
	// Continuous: the noisy source must deviate more.
	var dev [2]float64
	var flips [2]int
	var n [2]int
	gt.ForEach(func(e int, want data.Value) {
		p := d.Prop(d.EntryProp(e))
		d.ForEntry(e, func(k int, v data.Value) {
			if p.Type == data.Continuous {
				dev[k] += math.Abs(v.F - want.F)
			} else {
				if v.C != want.C {
					flips[k]++
				}
				n[k]++
			}
		})
	})
	// Noise std scales with sqrt(γ): expected ratio ≈ sqrt(20) ≈ 4.5.
	if ratio := dev[1] / dev[0]; ratio < 3 || ratio > 6.5 {
		t.Fatalf("γ=2 / γ=0.1 deviation ratio = %v, want ≈4.5", ratio)
	}
	fl0 := float64(flips[0]) / float64(n[0]) // θ = 0.125·0.1² = 0.00125
	fl1 := float64(flips[1]) / float64(n[1]) // θ = 0.125·2² = 0.5
	if fl0 > 0.01 {
		t.Fatalf("γ=0.1 flip rate = %v, want ≈0.00125 (near-perfect source)", fl0)
	}
	if fl1 < 0.4 || fl1 > 0.6 {
		t.Fatalf("γ=2 flip rate = %v, want ≈0.5", fl1)
	}
}

func TestCorruptCoverageProducesMissing(t *testing.T) {
	schema := Schema{Name: "cov", Cols: []Col{{Name: "x", Type: data.Continuous, Dist: Uniform, Min: 0, Max: 1}}}
	w := GenerateWorld(schema, 1000, 5)
	d, _ := Corrupt(w, []SourceProfile{{Name: "half", Gamma: 0.1, Coverage: 0.5}}, CorruptConfig{Seed: 6})
	frac := float64(d.ObservationCount(0)) / float64(d.NumEntries())
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("coverage = %v, want ≈0.5", frac)
	}
}

func TestPaperProfiles(t *testing.T) {
	ps := PaperProfiles()
	if len(ps) != 8 {
		t.Fatalf("%d profiles, want 8", len(ps))
	}
	gs := PaperGammas()
	for i, p := range ps {
		if p.Gamma != gs[i] {
			t.Fatal("profile gammas mismatch")
		}
	}
	if gs[0] != 0.1 || gs[7] != 2 {
		t.Fatal("paper gammas wrong endpoints")
	}
}

func TestAdultBankShape(t *testing.T) {
	// Scaled-down worlds keep the schema shape of Table 3.
	d, gt := Adult(UCIConfig{Seed: 1, Rows: 200})
	if d.NumProps() != 14 {
		t.Fatalf("adult props = %d, want 14", d.NumProps())
	}
	if d.NumSources() != 8 {
		t.Fatalf("adult sources = %d, want 8", d.NumSources())
	}
	if d.NumObservations() != 200*14*8 {
		t.Fatalf("adult observations = %d, want full coverage %d", d.NumObservations(), 200*14*8)
	}
	if gt.Count() != 200*14 {
		t.Fatalf("adult ground truths = %d, want every entry", gt.Count())
	}
	s := AdultSchema()
	if s.NumContinuous() != 6 || s.NumCategorical() != 8 {
		t.Fatalf("adult schema split = %d/%d, want 6/8", s.NumContinuous(), s.NumCategorical())
	}

	d, gt = Bank(UCIConfig{Seed: 1, Rows: 150})
	if d.NumProps() != 16 || d.NumSources() != 8 {
		t.Fatalf("bank dims = %d props %d sources", d.NumProps(), d.NumSources())
	}
	if gt.Count() != 150*16 {
		t.Fatal("bank ground truth incomplete")
	}
	bs := BankSchema()
	if bs.NumContinuous() != 7 || bs.NumCategorical() != 9 {
		t.Fatalf("bank schema split = %d/%d, want 7/9", bs.NumContinuous(), bs.NumCategorical())
	}
	// Full-scale constants match Table 3 entry counts.
	if AdultRows*14 != 455854 {
		t.Fatal("Adult entry count does not match Table 3")
	}
	if BankRows*16 != 723376 {
		t.Fatal("Bank entry count does not match Table 3")
	}
}

func TestWeatherShape(t *testing.T) {
	d, gt := Weather(WeatherConfig{Seed: 2})
	if d.NumSources() != 9 {
		t.Fatalf("weather sources = %d, want 9 (3 platforms × 3 lead days)", d.NumSources())
	}
	if d.NumProps() != 3 {
		t.Fatalf("weather props = %d, want 3", d.NumProps())
	}
	if d.NumEntries() != 1920 {
		t.Fatalf("weather entries = %d, want 1920 (Table 1)", d.NumEntries())
	}
	// ≈16k observations (Table 1: 16,038) given 0.93 coverage.
	if n := d.NumObservations(); n < 15200 || n > 16600 {
		t.Fatalf("weather observations = %d, want ≈16k", n)
	}
	// ≈1,740 ground truths (Table 1).
	if n := gt.Count(); n < 1600 || n > 1850 {
		t.Fatalf("weather ground truths = %d, want ≈1740", n)
	}
	if !d.HasTimestamps() {
		t.Fatal("weather must carry day timestamps for the streaming experiments")
	}
	min, max := d.TimestampRange()
	if min != 0 || max != 31 {
		t.Fatalf("weather timestamp range = [%d,%d], want [0,31]", min, max)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWeatherReliabilityStructure(t *testing.T) {
	d, gt := Weather(WeatherConfig{Seed: 3})
	rel := eval.TrueReliability(d, gt)
	// Platform order: wunderground (best) then hamweather then
	// worldweather; within each platform, lead-1 beats lead-3.
	if !(rel[0] > rel[6]) {
		t.Errorf("wunderground-day1 (%v) should beat worldweather-day1 (%v)", rel[0], rel[6])
	}
	if !(rel[0] > rel[2]) {
		t.Errorf("lead-1 (%v) should beat lead-3 (%v) on the same platform", rel[0], rel[2])
	}
	// Spread should be wide enough to make weighting worthwhile.
	min, max := stats.MinMax(rel)
	if max-min < 0.1 {
		t.Errorf("reliability spread = %v, too narrow to test weighting", max-min)
	}
}

func TestStockShape(t *testing.T) {
	d, gt := Stock(StockConfig{Seed: 4, Symbols: 40, Days: 5})
	if d.NumSources() != 55 {
		t.Fatalf("stock sources = %d, want 55", d.NumSources())
	}
	if d.NumProps() != 16 {
		t.Fatalf("stock props = %d, want 16", d.NumProps())
	}
	cont := 0
	for m := 0; m < d.NumProps(); m++ {
		if d.Prop(m).Type == data.Continuous {
			cont++
		}
	}
	if cont != 3 {
		t.Fatalf("stock continuous props = %d, want 3 (volume/shares/mktcap)", cont)
	}
	if gt.Count() == 0 {
		t.Fatal("stock has no ground truths")
	}
	// Partial ground truth only (≈9%).
	if frac := float64(gt.Count()) / float64(d.NumEntries()); frac > 0.2 {
		t.Fatalf("stock gt fraction = %v, want sparse", frac)
	}
	if !d.HasTimestamps() {
		t.Fatal("stock must carry timestamps")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFlightShape(t *testing.T) {
	d, gt := Flight(FlightConfig{Seed: 5, Flights: 40, Days: 5})
	if d.NumSources() != 38 {
		t.Fatalf("flight sources = %d, want 38", d.NumSources())
	}
	if d.NumProps() != 6 {
		t.Fatalf("flight props = %d, want 6", d.NumProps())
	}
	cont, cat := 0, 0
	for m := 0; m < d.NumProps(); m++ {
		if d.Prop(m).Type == data.Continuous {
			cont++
		} else {
			cat++
		}
	}
	if cont != 4 || cat != 2 {
		t.Fatalf("flight type split = %d/%d, want 4 continuous + 2 gates", cont, cat)
	}
	if gt.Count() == 0 {
		t.Fatal("flight has no ground truths")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSimulatorsDeterministic(t *testing.T) {
	d1, _ := Weather(WeatherConfig{Seed: 11})
	d2, _ := Weather(WeatherConfig{Seed: 11})
	if d1.NumObservations() != d2.NumObservations() {
		t.Fatal("weather not deterministic")
	}
	for e := 0; e < d1.NumEntries(); e++ {
		i, m := d1.EntryObject(e), d1.EntryProp(e)
		for k := 0; k < d1.NumSources(); k++ {
			if d1.Has(k, i, m) != d2.Has(k, i, m) {
				t.Fatal("weather presence not deterministic")
			}
			if d1.Has(k, i, m) && d1.Get(k, i, m) != d2.Get(k, i, m) {
				t.Fatal("weather values not deterministic")
			}
		}
	}
	s1, g1 := Stock(StockConfig{Seed: 12, Symbols: 10, Days: 3})
	s2, g2 := Stock(StockConfig{Seed: 12, Symbols: 10, Days: 3})
	if s1.NumObservations() != s2.NumObservations() || g1.Count() != g2.Count() {
		t.Fatal("stock not deterministic")
	}
	f1, _ := Flight(FlightConfig{Seed: 13, Flights: 10, Days: 3})
	f2, _ := Flight(FlightConfig{Seed: 13, Flights: 10, Days: 3})
	if f1.NumObservations() != f2.NumObservations() {
		t.Fatal("flight not deterministic")
	}
}
