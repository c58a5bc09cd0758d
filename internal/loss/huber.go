package loss

import (
	"math"

	"github.com/crhkit/crh/internal/stats"
)

// Huber is the Huber loss over continuous properties — quadratic within
// δ entry-spreads of the truth and linear beyond, interpolating between
// the squared loss (statistically efficient on clean data) and the
// absolute loss (robust to outliers):
//
//	d(v*, v) = ½ r²/s           if |r| ≤ δ·s,   r = v* − v
//	         = δ(|r| − ½ δ·s)   otherwise
//
// with s the entry's observation spread (the same normalizer the built-in
// losses use). The truth update has no closed form; it is computed by
// iteratively reweighted least squares from the weighted median, which
// converges in a handful of iterations because the objective is convex.
type Huber struct {
	// Delta is the quadratic/linear crossover in entry-spread units
	// (default 1.345, the classic 95%-efficiency constant).
	Delta float64
	// IRLSIters bounds the truth iterations (default 20);
	// IRLSTol stops them early (default 1e-10 relative movement).
	IRLSIters int
	IRLSTol   float64
}

func (h Huber) delta() float64 {
	if h.Delta == 0 {
		return 1.345
	}
	return h.Delta
}

// Name implements Continuous.
func (h Huber) Name() string { return "huber" }

// Deviation implements Continuous.
func (h Huber) Deviation(truth, obs, std float64) float64 {
	s := StdGuard(std)
	r := math.Abs(truth-obs) / s
	d := h.delta()
	if r <= d {
		return r * r / 2
	}
	return d * (r - d/2)
}

// Truth implements Continuous: IRLS on the convex Huber objective, with
// the robust scale and the starting median computed in the scratch.
func (h Huber) Truth(vals, ws, vbuf, wbuf []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	// The IRLS crossover needs a scale, and it must be a *robust* one:
	// the plain standard deviation is inflated by the very outliers the
	// loss exists to resist (one wild value can stretch δ·s past itself
	// and disable the linear regime). Use the normal-consistent MAD,
	// falling back to the std when more than half the values coincide.
	s := 1.4826 * stats.MAD(vals, vbuf, wbuf)
	if s < 1e-12 {
		s = StdGuard(stats.Std(vals))
	}
	d := h.delta() * s
	v := stats.WeightedMedianBuf(vals, ws, vbuf, wbuf)
	iters := h.IRLSIters
	if iters == 0 {
		iters = 20
	}
	tol := h.IRLSTol
	if tol == 0 {
		tol = 1e-10
	}
	for it := 0; it < iters; it++ {
		var num, den float64
		for i, x := range vals {
			r := math.Abs(v - x)
			omega := 1.0
			if r > d {
				omega = d / r
			}
			w := ws[i] * omega
			num += w * x
			den += w
		}
		if den == 0 {
			return stats.WeightedMedianBuf(vals, ws, vbuf, wbuf)
		}
		next := num / den
		if math.Abs(next-v) <= tol*(1+math.Abs(v)) {
			return next
		}
		v = next
	}
	return v
}
