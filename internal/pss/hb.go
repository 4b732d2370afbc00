package pss

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/fourier"
	"repro/internal/linalg"
	"repro/internal/solver"
)

// HBSolution is a periodic steady state in the frequency domain: for each
// free node, complex Fourier coefficients X_n for harmonics n = 0..H with
// x(t) = Σ_n X_n·e^{j2πnt/T} and X_{−n} = conj(X_n).
type HBSolution struct {
	H     int             // harmonic truncation
	Omega float64         // fundamental angular frequency, rad/s
	T0    float64         // period
	F0    float64         // frequency
	X     [][]complex128  // X[node][n], n = 0..H
	Sys   *circuit.System // circuit the solution lives on
	// Residual is the ∞-norm of the HB residual at the solution.
	Residual float64
	// Iterations counts Newton steps taken by RefineHBCtx.
	Iterations int
}

// NodeSeries exposes node k's spectrum as a fourier.Series in normalized
// time.
func (h *HBSolution) NodeSeries(k int) *fourier.Series {
	return &fourier.Series{Coef: append([]complex128(nil), h.X[k]...)}
}

// hbSampleCount returns the oversampled time grid size used to evaluate
// nonlinearities (4× oversampling guards against aliasing of the square-law
// devices).
func hbSampleCount(h int) int {
	k := 1
	for k < 4*(2*h+1) {
		k <<= 1
	}
	return k
}

// HBFromSolution converts a time-domain PSS to the HB representation by
// FFT, truncating at harmonics harms.
func HBFromSolution(sys *circuit.System, sol *Solution, harms int) *HBSolution {
	n := sys.N
	k := sol.K()
	hb := &HBSolution{H: harms, Omega: 2 * math.Pi * sol.F0, T0: sol.T0, F0: sol.F0, Sys: sys}
	hb.X = make([][]complex128, n)
	for node := 0; node < n; node++ {
		samples := make([]float64, k)
		for i := 0; i < k; i++ {
			samples[i] = sol.States[i][node]
		}
		s := fourier.NewSeriesFromSamples(samples, harms)
		coef := make([]complex128, harms+1)
		copy(coef, s.Coef)
		hb.X[node] = coef
	}
	hb.Residual = hbResidualNorm(sys, hb, nil)
	return hb
}

// sampleStates reconstructs time-domain states on kk uniform samples.
func sampleStates(hb *HBSolution, kk int) []linalg.Vec {
	n := len(hb.X)
	out := make([]linalg.Vec, kk)
	for i := 0; i < kk; i++ {
		out[i] = linalg.NewVec(n)
	}
	for node := 0; node < n; node++ {
		s := &fourier.Series{Coef: hb.X[node]}
		for i := 0; i < kk; i++ {
			out[i][node] = s.Eval(float64(i) / float64(kk))
		}
	}
	return out
}

// spectrumOf computes Fourier coefficients (0..H) of per-node samples.
func spectrumOf(samples []linalg.Vec, node, h int) []complex128 {
	kk := len(samples)
	buf := make([]float64, kk)
	for i := 0; i < kk; i++ {
		buf[i] = samples[i][node]
	}
	s := fourier.NewSeriesFromSamples(buf, h)
	out := make([]complex128, h+1)
	copy(out, s.Coef)
	return out
}

// hbResidual computes the complex residual F_n = jωn·C·X_n + f̂_n for
// n = 0..H per node, returned as [node][n].
func hbResidual(sys *circuit.System, hb *HBSolution, m *diag.Metrics) [][]complex128 {
	n := sys.N
	kk := hbSampleCount(hb.H)
	states := sampleStates(hb, kk)
	// Evaluate f(x(t)) on the grid (autonomous circuits: no explicit t, but
	// pass normalized times anyway for safety).
	ws := sys.NewWorkspace()
	ws.SetMetrics(m)
	fs := make([]linalg.Vec, kk)
	for i := 0; i < kk; i++ {
		fs[i] = ws.EvalF(states[i], hb.T0*float64(i)/float64(kk), nil)
	}
	res := make([][]complex128, n)
	for node := 0; node < n; node++ {
		res[node] = spectrumOf(fs, node, hb.H)
	}
	for nn := 0; nn <= hb.H; nn++ {
		jw := complex(0, hb.Omega*float64(nn))
		for row := 0; row < n; row++ {
			var cx complex128
			for col := 0; col < n; col++ {
				cx += complex(sys.C.At(row, col), 0) * hb.X[col][nn]
			}
			res[row][nn] += jw * cx
		}
	}
	return res
}

func hbResidualNorm(sys *circuit.System, hb *HBSolution, m *diag.Metrics) float64 {
	res := hbResidual(sys, hb, m)
	mx := 0.0
	for _, r := range res {
		for _, c := range r {
			if a := cmplx.Abs(c); a > mx {
				mx = a
			}
		}
	}
	return mx
}

// jacobianSpectrum computes the Fourier coefficients Ĝ_k (k = 0..2H) of the
// time-varying Jacobian G(t) = df/dx along the orbit; Ĝ_{−k} = conj(Ĝ_k).
func jacobianSpectrum(sys *circuit.System, hb *HBSolution, m *diag.Metrics) []*linalg.CMat {
	n := sys.N
	kk := hbSampleCount(hb.H)
	states := sampleStates(hb, kk)
	ws := sys.NewWorkspace()
	ws.SetMetrics(m)
	f := linalg.NewVec(n)
	j := linalg.NewMat(n, n)
	// gs[i] holds G at sample i.
	gs := make([]*linalg.Mat, kk)
	for i := 0; i < kk; i++ {
		ws.EvalFJ(states[i], hb.T0*float64(i)/float64(kk), f, j)
		gs[i] = j.Clone()
	}
	out := make([]*linalg.CMat, 2*hb.H+1)
	buf := make([]float64, kk)
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			for i := 0; i < kk; i++ {
				buf[i] = gs[i].At(row, col)
			}
			s := fourier.NewSeriesFromSamples(buf, 2*hb.H)
			for k := 0; k <= 2*hb.H; k++ {
				if out[k] == nil {
					out[k] = linalg.NewCMat(n, n)
				}
				out[k].Set(row, col, s.Coefficient(k))
			}
		}
	}
	return out
}

// ghat returns Ĝ_k for any k in [−2H, 2H].
func ghat(spec []*linalg.CMat, k int) *linalg.CMat {
	if k >= 0 {
		if k < len(spec) {
			return spec[k]
		}
		return nil
	}
	if -k < len(spec) {
		return spec[-k].ConjClone()
	}
	return nil
}

// FullJacobian assembles the complex HB Jacobian over harmonics n, m in
// [−H, H]: J_{nm} = jωn·C·δ_{nm} + Ĝ_{n−m}, as a dense complex matrix of
// size N(2H+1). Row/col block order is n = −H..H. This is the matrix whose
// left null space is the frequency-domain PPV (PPV-HB).
func (h *HBSolution) FullJacobian() *linalg.CMat {
	sys := h.Sys
	n := sys.N
	spec := jacobianSpectrum(sys, h, nil)
	dim := n * (2*h.H + 1)
	out := linalg.NewCMat(dim, dim)
	for bn := -h.H; bn <= h.H; bn++ {
		for bm := -h.H; bm <= h.H; bm++ {
			g := ghat(spec, bn-bm)
			if g == nil {
				continue
			}
			rOff := (bn + h.H) * n
			cOff := (bm + h.H) * n
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					out.Addf(rOff+i, cOff+j, g.At(i, j))
				}
			}
		}
	}
	for bn := -h.H; bn <= h.H; bn++ {
		jw := complex(0, h.Omega*float64(bn))
		off := (bn + h.H) * n
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				out.Addf(off+i, off+j, jw*complex(sys.C.At(i, j), 0))
			}
		}
	}
	return out
}

// PPVHB extracts the frequency-domain PPV (Mei–Roychowdhury PPV-HB): the
// left null vector of the HB Jacobian, normalized so that ⟨v, ẋₛ⟩ = 1.
// It returns per-node Fourier coefficients (0..H) of the *current-injection*
// PPV, directly comparable with ppv.FromSolutionCtx's NodeSeries.
func (h *HBSolution) PPVHB() ([][]complex128, error) {
	sys := h.Sys
	n := sys.N
	jac := h.FullJacobian()
	// Left null vector of J: solve J^H y = 0. As derived in package ppv's
	// doc, y is the spectrum of the current-injection PPV, with blocks
	// ordered n = −H..H.
	y, err := linalg.CNullVector(jac.CTranspose(), 400, 1e-12)
	if err != nil {
		return nil, fmt.Errorf("pss: PPV-HB null vector: %w", err)
	}
	// Enforce conjugate symmetry: Y_{−n} = conj(Y_n). The null space is
	// one-dimensional, so y may carry an arbitrary complex phase; rotate it
	// so the DC block is real, then symmetrize.
	get := func(bn, i int) complex128 { return y[(bn+h.H)*n+i] }
	// Rotation: make the largest DC entry real.
	var pivot complex128
	for i := 0; i < n; i++ {
		if cmplx.Abs(get(0, i)) > cmplx.Abs(pivot) {
			pivot = get(0, i)
		}
	}
	if cmplx.Abs(pivot) > 0 {
		rot := cmplx.Conj(pivot) / complex(cmplx.Abs(pivot), 0)
		for i := range y {
			y[i] *= rot
		}
	}
	// Normalization: Σ_n conj(Cᵀ·Y_n)ᵀ · (jωn·X_n) = 1.
	var norm complex128
	for bn := -h.H; bn <= h.H; bn++ {
		jw := complex(0, h.Omega*float64(bn))
		for i := 0; i < n; i++ {
			// (Cᵀ Y_n)_i = Σ_j C_ji Y_n[j]
			var cy complex128
			for j := 0; j < n; j++ {
				cy += complex(sys.C.At(j, i), 0) * get(bn, j)
			}
			xn := h.harm(i, bn)
			norm += cmplx.Conj(cy) * jw * xn
		}
	}
	if cmplx.Abs(norm) == 0 {
		return nil, errors.New("pss: PPV-HB normalization degenerate")
	}
	out := make([][]complex128, n)
	for node := 0; node < n; node++ {
		out[node] = make([]complex128, h.H+1)
		for bn := 0; bn <= h.H; bn++ {
			// Average the ±n blocks for symmetry robustness.
			a := get(bn, node) / norm
			b := cmplx.Conj(get(-bn, node) / norm)
			out[node][bn] = (a + b) / 2
		}
	}
	return out, nil
}

// harm returns X_n for any n in [−H, H].
func (h *HBSolution) harm(node, n int) complex128 {
	if n >= 0 {
		return h.X[node][n]
	}
	return cmplx.Conj(h.X[node][-n])
}

// RefineHBCtx polishes an HB solution with a real-unknown Newton iteration
// on the harmonic-balance residual, treating ω as unknown and anchoring the
// phase by pinning Im(X_1[anchorNode]) at its current value. Starting from
// a time-domain shooting solution it typically converges in 2–4 steps and
// sharpens the frequency estimate beyond the integrator's O(h²) bias. The
// polish runs under an "hb.refine" span and counts Newton iterations, LU
// work and circuit evaluations on the metrics carried by ctx.
func RefineHBCtx(ctx context.Context, sys *circuit.System, hb *HBSolution, maxIter int, tol float64) error {
	defer diag.SpanFrom(ctx, "hb.refine").End()
	dm := diag.FromContext(ctx)
	dm.Inc(diag.NewtonSolves)
	n := sys.N
	H := hb.H
	if maxIter == 0 {
		maxIter = 12
	}
	if tol == 0 {
		tol = 1e-9
	}
	// Pick the anchor node as the one with the largest fundamental.
	anchor := 0
	for i := 1; i < n; i++ {
		if cmplx.Abs(hb.X[i][1]) > cmplx.Abs(hb.X[anchor][1]) {
			anchor = i
		}
	}
	// Real unknown layout: [X_0 (n) | Re X_1, Im X_1 (2n) | ... | ω],
	// with Im(X_1[anchor]) excluded.
	type coord struct{ node, harm, part int } // part: 0 Re, 1 Im
	var coords []coord
	for node := 0; node < n; node++ {
		coords = append(coords, coord{node, 0, 0})
	}
	for harm := 1; harm <= H; harm++ {
		for node := 0; node < n; node++ {
			coords = append(coords, coord{node, harm, 0})
			if !(harm == 1 && node == anchor) {
				coords = append(coords, coord{node, harm, 1})
			}
		}
	}
	dim := len(coords) + 1 // + ω
	omegaIdx := dim - 1

	// Residual layout mirrors the unknowns: F_0 real (n), F_h complex split
	// into Re/Im (2n each): total n(2H+1) = dim.
	residVec := func(res [][]complex128) linalg.Vec {
		out := linalg.NewVec(dim)
		idx := 0
		for node := 0; node < n; node++ {
			out[idx] = real(res[node][0])
			idx++
		}
		for harm := 1; harm <= H; harm++ {
			for node := 0; node < n; node++ {
				out[idx] = real(res[node][harm])
				idx++
				out[idx] = imag(res[node][harm])
				idx++
			}
		}
		return out
	}

	for iter := 0; iter < maxIter; iter++ {
		res := hbResidual(sys, hb, dm)
		rv := residVec(res)
		if rv.NormInf() <= tol {
			hb.Residual = rv.NormInf()
			hb.Iterations = iter
			return nil
		}
		dm.Inc(diag.NewtonIterations)
		spec := jacobianSpectrum(sys, hb, dm)
		jac := linalg.NewMat(dim, dim)
		// dF_n/d(unknown): complex sensitivity S = dF_n/dX_m combined with
		// the conjugate path dF_n/d(conj X_m) = Ĝ_{n+m}.
		row := 0
		addRow := func(nn, rnode int, wantIm bool) {
			for ci, cc := range coords {
				var sens complex128
				if cc.harm == 0 {
					g := ghat(spec, nn)
					if g != nil {
						sens = g.At(rnode, cc.node)
					}
					if nn == 0 {
						var cx complex128
						cx = complex(0, hb.Omega*float64(nn)) * complex(sys.C.At(rnode, cc.node), 0)
						sens += cx
					}
					if wantIm {
						jac.Set(row, ci, imag(sens))
					} else {
						jac.Set(row, ci, real(sens))
					}
					continue
				}
				a := complex(0, 0) // dF/dX_m path
				if g := ghat(spec, nn-cc.harm); g != nil {
					a = g.At(rnode, cc.node)
				}
				if nn == cc.harm {
					a += complex(0, hb.Omega*float64(nn)) * complex(sys.C.At(rnode, cc.node), 0)
				}
				b := complex(0, 0) // dF/d(conj X_m) path
				if g := ghat(spec, nn+cc.harm); g != nil {
					b = g.At(rnode, cc.node)
				}
				var d complex128
				if cc.part == 0 { // ∂/∂Re X_m: dX = 1, dconjX = 1
					d = a + b
				} else { // ∂/∂Im X_m: dX = i, dconjX = −i
					d = complex(0, 1)*a - complex(0, 1)*b
				}
				if wantIm {
					jac.Set(row, ci, imag(d))
				} else {
					jac.Set(row, ci, real(d))
				}
			}
			// ω column: dF_n/dω = j·n·C·X_n.
			var dw complex128
			for col := 0; col < n; col++ {
				dw += complex(0, float64(nn)) * complex(sys.C.At(rnode, col), 0) * hb.harm(col, nn)
			}
			if wantIm {
				jac.Set(row, omegaIdx, imag(dw))
			} else {
				jac.Set(row, omegaIdx, real(dw))
			}
			row++
		}
		for node := 0; node < n; node++ {
			addRow(0, node, false)
		}
		for harm := 1; harm <= H; harm++ {
			for node := 0; node < n; node++ {
				addRow(harm, node, false)
				addRow(harm, node, true)
			}
		}
		lu, err := linalg.Factorize(jac)
		dm.Inc(diag.LUFactorizations)
		if err != nil {
			return fmt.Errorf("pss: HB Jacobian singular: %w", err)
		}
		dx := lu.Solve(rv)
		dm.Inc(diag.LUSolves)
		// Apply −dx.
		for ci, cc := range coords {
			d := dx[ci]
			switch {
			case cc.harm == 0:
				hb.X[cc.node][0] -= complex(d, 0)
			case cc.part == 0:
				hb.X[cc.node][cc.harm] -= complex(d, 0)
			default:
				hb.X[cc.node][cc.harm] -= complex(0, d)
			}
		}
		hb.Omega -= dx[omegaIdx]
		hb.T0 = 2 * math.Pi / hb.Omega
		hb.F0 = 1 / hb.T0
		// Keep DC strictly real.
		for node := 0; node < n; node++ {
			hb.X[node][0] = complex(real(hb.X[node][0]), 0)
		}
	}
	hb.Residual = hbResidualNorm(sys, hb, dm)
	return fmt.Errorf("pss: HB Newton did not converge (residual %.3g): %w", hb.Residual, solver.ErrNoConvergence)
}
