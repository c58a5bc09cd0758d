package experiments

import (
	"fmt"
	"io"
)

// Experiment is a regenerable table or figure.
type Experiment struct {
	ID      string
	Caption string
	Run     func(Scale) *Report
}

// all lists every experiment in the paper's presentation order, the
// extensions last.
var all = []Experiment{
	{"table1", "Statistics of real-world data sets", Table1},
	{"table2", "Performance comparison on real-world data sets", Table2},
	{"fig1", "Source reliability vs ground truth (weather)", Fig1},
	{"table3", "Statistics of simulated data sets", Table3},
	{"table4", "Performance comparison on simulated data sets", Table4},
	{"fig2", "Performance w.r.t. # reliable sources (Adult)", Fig2},
	{"fig3", "Performance w.r.t. # reliable sources (Bank)", Fig3},
	{"table5", "CRH vs I-CRH", Table5},
	{"fig4", "I-CRH weight trajectories vs CRH", Fig4},
	{"fig5", "I-CRH w.r.t. time window", Fig5},
	{"fig6", "I-CRH w.r.t. decay rate", Fig6},
	{"table6", "Parallel CRH running time vs observations", Table6},
	{"fig7", "Parallel CRH running time vs entries/sources", Fig7},
	{"fig8", "Parallel CRH running time vs reducers", Fig8},
	// Extension experiments: features the paper discusses or defers
	// but does not evaluate.
	{"ext-longtail", "[extension] CATD confidence-aware weights on long-tail data", ExtLongTail},
	{"ext-copycat", "[extension] AccuCopy source-dependence detection", ExtCopycat},
	{"ext-groups", "[extension] Per-property source weights", ExtGroups},
}

// Registry returns all experiments keyed by ID.
func Registry() map[string]Experiment {
	m := make(map[string]Experiment, len(all))
	for _, e := range all {
		m[e.ID] = e
	}
	return m
}

// IDs returns the experiment IDs in presentation order.
func IDs() []string {
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// RunAll executes every experiment at the given scale, rendering each
// report to w as it completes.
func RunAll(s Scale, w io.Writer) {
	reg := Registry()
	for _, id := range IDs() {
		fmt.Fprintf(w, ">>> running %s ...\n", id)
		reg[id].Run(s).Render(w)
	}
}
