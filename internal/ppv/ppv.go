// Package ppv extracts Perturbation Projection Vector (PPV) phase
// macromodels from oscillator periodic steady states — the paper's eq. (3):
//
//	dα/dt = vᵀ(t + α) · b(t)
//
// where α is the oscillator's phase deviation (seconds) and b(t) collects
// the perturbations. Two extraction paths are provided, mirroring the
// paper's references:
//
//   - time domain (Demir–Roychowdhury): the PPV is the periodic solution of
//     the adjoint LTV system, obtained from the left eigenvector of the
//     monodromy matrix at eigenvalue 1, propagated backward over one period
//     with the discrete adjoint of the trapezoidal variational map
//     (FromSolutionCtx);
//   - frequency domain (PPV-HB, Mei–Roychowdhury): the left null vector of
//     the harmonic-balance Jacobian at the PSS (FromHB in hb.go of
//     package pss is consumed here via FromHBJacobian).
//
// The stored quantity is the *current-injection* PPV: VI[k][node] maps a
// current injected into a free node to dα/dt, absorbing the C⁻¹ factor of
// the ODE form (see circuit.System.InjectionGain). Its per-node Fourier
// coefficients are what Generalized Adlerization consumes.
package ppv

import (
	"context"
	"errors"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/fourier"
	"repro/internal/linalg"
	"repro/internal/pss"
)

// PPV is an extracted phase macromodel.
type PPV struct {
	T0, F0 float64
	// Grid is the uniform time grid [0, T0] with K+1 points.
	Grid []float64
	// VI[k] is the current-injection PPV at Grid[k]: dα/dt = Σ VI[k][n]·I_n
	// for currents I_n injected into free node n (units 1/A·s·s⁻¹ → 1/(A·s)
	// integrated against currents; α is in seconds).
	VI []linalg.Vec
	// NodeSeries[n] is the Fourier series of VI[·][n] in normalized time.
	NodeSeries []*fourier.Series
	// Sol is the PSS the PPV was extracted from.
	Sol *pss.Solution
	// NormError reports how far vᵀẋₛ deviated from a constant before
	// pointwise renormalization (diagnostic; small is good).
	NormError float64
}

// MaxHarmonics controls how many harmonics NodeSeries keeps.
const MaxHarmonics = 32

// FromSolutionCtx extracts the PPV from a converged autonomous PSS by the
// time-domain adjoint method, checking ctx between grid points. The circuit
// is extracted as a one-lane batch (FromSolutionsBatch), so a single
// circuit's PPV is bit for bit its lane's in any batch.
func FromSolutionCtx(ctx context.Context, sys *circuit.System, sol *pss.Solution) (*PPV, error) {
	if sol == nil {
		return nil, errors.New("ppv: no PSS solution to extract from")
	}
	b, err := circuit.NewBatch([]*circuit.System{sys})
	if err != nil {
		return nil, err
	}
	defer diag.SpanFrom(ctx, "ppv.adjoint").End()
	ps, errs, err := FromSolutionsBatch(ctx, b, []*pss.Solution{sol})
	if err != nil {
		return nil, err
	}
	return ps[0], errs[0]
}

// finish assembles the PPV container and node Fourier series.
func finish(sol *pss.Solution, vi []linalg.Vec, normErr float64) *PPV {
	k := len(vi) - 1
	n := len(vi[0])
	p := &PPV{
		T0: sol.T0, F0: sol.F0,
		Grid: sol.Grid, VI: vi,
		NodeSeries: make([]*fourier.Series, n),
		Sol:        sol,
		NormError:  normErr,
	}
	for node := 0; node < n; node++ {
		samples := make([]float64, k)
		for i := 0; i < k; i++ {
			samples[i] = vi[i][node]
		}
		maxH := MaxHarmonics
		p.NodeSeries[node] = fourier.NewSeriesFromSamples(samples, maxH)
	}
	return p
}

// At evaluates the current-injection PPV of a node at an arbitrary time
// (spectrally, via the node series; time in seconds, wrapped mod T0).
func (p *PPV) At(node int, t float64) float64 {
	return p.NodeSeries[node].Eval(t / p.T0)
}

// Harmonic returns the complex Fourier coefficient V_m of the node's PPV in
// normalized time — the quantity Generalized Adlerization picks off.
func (p *PPV) Harmonic(node, m int) complex128 {
	return p.NodeSeries[node].Coefficient(m)
}

// PeriodicityError measures |v(0) − v(T0)|∞ relative to the PPV magnitude —
// a health check on the adjoint propagation.
func (p *PPV) PeriodicityError() float64 {
	k := len(p.VI) - 1
	d := linalg.NewVec(len(p.VI[0]))
	d.Sub(p.VI[0], p.VI[k])
	scale := 0.0
	for _, v := range p.VI {
		if m := v.NormInf(); m > scale {
			scale = m
		}
	}
	if scale == 0 {
		return 0
	}
	return d.NormInf() / scale
}

// FromHBCoefficients builds a PPV directly from frequency-domain
// coefficients (the PPV-HB path): coefs[node] are the Fourier coefficients
// of the node's current-injection PPV for harmonics 0..H, on the PSS sol.
func FromHBCoefficients(sol *pss.Solution, coefs [][]complex128) *PPV {
	n := len(coefs)
	p := &PPV{
		T0: sol.T0, F0: sol.F0,
		Grid:       sol.Grid,
		NodeSeries: make([]*fourier.Series, n),
		Sol:        sol,
	}
	for node := 0; node < n; node++ {
		p.NodeSeries[node] = &fourier.Series{Coef: append([]complex128(nil), coefs[node]...)}
	}
	// Materialize the grid samples for uniformity with the time-domain path.
	k := sol.K()
	p.VI = make([]linalg.Vec, k+1)
	for i := 0; i <= k; i++ {
		v := linalg.NewVec(n)
		for node := 0; node < n; node++ {
			v[node] = p.NodeSeries[node].Eval(float64(i) / float64(k))
		}
		p.VI[i] = v
	}
	return p
}
