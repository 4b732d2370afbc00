package gae

import (
	"context"
	"math"

	"repro/internal/diag"
)

// TransientResult is a phase trajectory of the scalar GAE.
type TransientResult struct {
	T    []float64
	Dphi []float64
}

// Final returns the last phase sample, or NaN when the trajectory is empty —
// callers comparing against a threshold then fail loudly instead of panicking
// or silently reading a stale value.
func (r *TransientResult) Final() float64 {
	if r == nil || len(r.Dphi) == 0 {
		return math.NaN()
	}
	return r.Dphi[len(r.Dphi)-1]
}

// SettleTime returns the first time after which the trajectory stays within
// tol cycles of its final value, or +Inf if it never settles. This is the
// bit-flip timing metric of Fig. 12.
func (r *TransientResult) SettleTime(tol float64) float64 {
	final := r.Final()
	for i := len(r.T) - 1; i >= 0; i-- {
		if math.Abs(r.Dphi[i]-final) > tol {
			if i == len(r.T)-1 {
				return math.Inf(1)
			}
			return r.T[i+1]
		}
	}
	return r.T[0]
}

// TransientCtx integrates the averaged GAE dΔφ/dt = (f0−f1) + f0·g(Δφ)
// with classic RK4 and adaptive step halving/doubling on the embedded
// half-step estimate. The GAE is autonomous, so this is cheap and robust;
// the paper's Fig. 12 uses exactly this facility to predict bit-flip
// timing. Accepted RK4 steps count as GAESteps on the metrics carried by
// ctx, under a "gae.transient" span.
func (m *Model) TransientCtx(ctx context.Context, dphi0, t0, t1, dt float64) *TransientResult {
	defer diag.SpanFrom(ctx, "gae.transient").End()
	dm := diag.FromContext(ctx)
	res := &TransientResult{}
	x := dphi0
	t := t0
	h := dt
	res.T = append(res.T, t)
	res.Dphi = append(res.Dphi, x)
	rhs := m.Compile().RHS
	step := func(x0, h float64) float64 {
		k1 := rhs(x0)
		k2 := rhs(x0 + h/2*k1)
		k3 := rhs(x0 + h/2*k2)
		k4 := rhs(x0 + h*k3)
		return x0 + h/6*(k1+2*k2+2*k3+k4)
	}
	const tol = 1e-8
	for t < t1 {
		if t+h > t1 {
			h = t1 - t
		}
		full := step(x, h)
		half := step(step(x, h/2), h/2)
		err := math.Abs(full - half)
		if err > tol && h > dt/1024 {
			h /= 2
			continue
		}
		x = half
		t += h
		dm.Inc(diag.GAESteps)
		res.T = append(res.T, t)
		res.Dphi = append(res.Dphi, x)
		if err < tol/16 && h < dt*16 {
			h *= 2
		}
	}
	return res
}

// TransientNonAveragedCtx integrates the unaveraged single-oscillator phase
// equation (the paper's eq. 13, fast-varying mode preserved):
//
//	dΔφ/dt = (f0 − f1) + f0 · Σₖ VIₖ((Δφ + f1·t)/f0) · Iₖ(t)
//
// with fixed-step RK4, stepsPerCycle steps per 1/f1. It serves as the
// ablation reference for the averaged GAE. Its cost diagnostics (GAESteps,
// "gae.transient" span) are carried by ctx.
//
// The time grid is t0 + k·h, indexed by the integer k, and its last point
// is t1; a trailing partial step runs only when t1 − t0 leaves a real
// fraction of h, never for floating-point dust (as in phasemacro.Run).
func (m *Model) TransientNonAveragedCtx(ctx context.Context, dphi0, t0, t1 float64, stepsPerCycle int) *TransientResult {
	defer diag.SpanFrom(ctx, "gae.transient").End()
	dm := diag.FromContext(ctx)
	if stepsPerCycle <= 0 {
		stepsPerCycle = 64
	}
	h := 1 / m.F1 / float64(stepsPerCycle)
	rhs := func(t, x float64) float64 {
		tau := x + m.F1*t
		s := 0.0
		for _, in := range m.Injections {
			if in.Amp == 0 {
				continue
			}
			cur := in.Amp * math.Cos(2*math.Pi*(float64(in.Harmonic)*m.F1*t+in.Phase))
			s += m.P.NodeSeries[in.Node].Eval(tau) * cur
		}
		return (m.P.F0 - m.F1) + m.P.F0*s
	}
	// full = whole h intervals in [t0, t1]; the relative guard keeps exact
	// divisions from flooring one short.
	span := t1 - t0
	full := max(int(math.Floor(span/h*(1+1e-12))), 0)
	steps := full
	if span-float64(full)*h > h*1e-9 {
		steps++
	}
	res := &TransientResult{T: make([]float64, steps+1), Dphi: make([]float64, steps+1)}
	x := dphi0
	res.T[0], res.Dphi[0] = t0, x
	for k := 1; k <= steps; k++ {
		t, hh := t0+float64(k-1)*h, h
		if k > full {
			hh = t1 - t
		}
		k1 := rhs(t, x)
		k2 := rhs(t+hh/2, x+hh/2*k1)
		k3 := rhs(t+hh/2, x+hh/2*k2)
		k4 := rhs(t+hh, x+hh*k3)
		x += hh / 6 * (k1 + 2*k2 + 2*k3 + k4)
		dm.Inc(diag.GAESteps)
		res.T[k], res.Dphi[k] = t0+float64(k)*h, x
	}
	if steps > 0 {
		res.T[steps] = t1
	}
	return res
}
