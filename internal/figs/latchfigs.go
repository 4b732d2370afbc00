package figs

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/gae"
	"repro/internal/plot"
	ppvPkg "repro/internal/ppv"
)

// fig5SyncAmps mirrors the paper's SYNC amplitude family.
var fig5SyncAmps = []float64{30e-6, 50e-6, 70e-6, 100e-6, 150e-6}

// fig5Detune places the lock threshold at 70 µA (the paper's Fig. 5
// threshold) given this ring's PPV second harmonic: |Δf|/f0 = A_thr·|V₂|.
func (c *Context) fig5Detune() (float64, error) {
	_, _, p, err := c.Ring1()
	if err != nil {
		return 0, err
	}
	return 70e-6 * p.NodeSeries[0].Magnitude(2), nil
}

// Fig04 regenerates the free-running PSS response (paper Fig. 4) and the
// Δφ_peak calibration of eq. (6).
func (c *Context) Fig04() (*Result, error) {
	_, sol, _, err := c.Ring1()
	if err != nil {
		return nil, err
	}
	s := sol.NodeSeries(0, 32)
	peak := s.PeakPosition()
	n := 256
	x := make([]float64, n+1)
	y := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		x[i] = float64(i) / float64(n)
		y[i] = s.Eval(x[i])
	}
	ch := plot.New("Fig. 4 — PSS response of the free-running ring oscillator",
		"normalized time t/T0 (cycles)", "V(n1) [V]")
	ch.Add("V(n1) PSS", x, y)
	ch.AddScatter("peak (Δφ_peak)", []float64{peak}, []float64{s.Eval(peak)})
	res := &Result{
		Name: "fig04", Title: ch.Title, Chart: ch,
		Metrics: map[string]float64{
			"f0_Hz":     sol.F0,
			"dphi_peak": peak,
			"vmin_V":    minOf(y),
			"vmax_V":    maxOf(y),
		},
		Notes: "paper: f0 near 9.6 kHz, Δφ_peak ≈ 0.21, rail-to-rail swing",
		CSV:   seriesCSV("t_over_T0,v_n1", x, y),
	}
	return res, c.emit(res)
}

// Fig05 regenerates the graphical GAE solutions of eq. (5): the RHS g(Δφ)
// for a family of SYNC amplitudes against the LHS detuning line; above the
// threshold amplitude the curves intersect the line four times (two stable).
func (c *Context) Fig05() (*Result, error) {
	_, _, p, err := c.Ring1()
	if err != nil {
		return nil, err
	}
	det, err := c.fig5Detune()
	if err != nil {
		return nil, err
	}
	f1 := p.F0 * (1 + det)
	ch := plot.New(
		fmt.Sprintf("Fig. 5 — graphical solutions of eq. (5), f1 = %.0f Hz", f1),
		"Δφ (cycles)", "g(Δφ) and (f1−f0)/f0")
	csv := []string{"dphi,lhs,g30u,g50u,g70u,g100u,g150u"}
	const n = 241
	cols := make([][]float64, len(fig5SyncAmps))
	var xs []float64
	metrics := map[string]float64{"f1_Hz": f1, "detune_rel": det}
	for ai, a := range fig5SyncAmps {
		m := gae.NewModel(p, f1, gae.Injection{Name: "SYNC", Node: 0, Amp: a, Harmonic: 2})
		x, g := m.GCurve(n)
		xs = x
		cols[ai] = g
		ch.Add(fmt.Sprintf("g, A=%.0f µA", a*1e6), x, g)
		metrics[fmt.Sprintf("intersections_A%.0fu", a*1e6)] = float64(len(m.Equilibria()))
	}
	lhs := make([]float64, n)
	for i := range lhs {
		lhs[i] = det
	}
	ch.Add("LHS (f1−f0)/f0", xs, lhs)
	for i := 0; i < n; i++ {
		row := fmt.Sprintf("%.6g,%.6g", xs[i], det)
		for _, col := range cols {
			row += fmt.Sprintf(",%.6g", col[i])
		}
		csv = append(csv, row)
	}
	res := &Result{
		Name: "fig05", Title: ch.Title, Chart: ch, Metrics: metrics,
		Notes: "paper: ≥4 intersections once A exceeds ≈70 µA; detuning chosen to place the threshold at 70 µA for this ring's |V2|",
		CSV:   csv,
	}
	return res, c.emit(res)
}

// Fig06 overlays the current-injection PPV waveforms of the 1N1P and 2N1P
// latches (paper Fig. 6): the asymmetric inverter has the larger second
// harmonic.
func (c *Context) Fig06() (*Result, error) {
	_, _, p1, err := c.Ring1()
	if err != nil {
		return nil, err
	}
	_, _, p2, err := c.Ring2()
	if err != nil {
		return nil, err
	}
	const n = 256
	x := make([]float64, n+1)
	y1 := make([]float64, n+1)
	y2 := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		x[i] = float64(i) / float64(n)
		y1[i] = p1.NodeSeries[0].Eval(x[i])
		y2[i] = p2.NodeSeries[0].Eval(x[i])
	}
	ch := plot.New("Fig. 6 — PPVs of ring oscillator latches (1N1P vs 2N1P)",
		"normalized time t/T0 (cycles)", "PPV (dα/dt per injected ampere) [1/A·s⁻¹... normalized]")
	ch.Add("1N1P", x, y1)
	ch.Add("2N1P", x, y2)
	s1, s2 := p1.NodeSeries[0], p2.NodeSeries[0]
	res := &Result{
		Name: "fig06", Title: ch.Title, Chart: ch,
		Metrics: map[string]float64{
			"V1_1N1P":    s1.Magnitude(1),
			"V2_1N1P":    s1.Magnitude(2),
			"V1_2N1P":    s2.Magnitude(1),
			"V2_2N1P":    s2.Magnitude(2),
			"ratio_1N1P": s1.Magnitude(2) / s1.Magnitude(1),
			"ratio_2N1P": s2.Magnitude(2) / s2.Magnitude(1),
		},
		Notes: "paper: 2N1P (asymmetrized) PPV has the larger 2nd-harmonic content",
		CSV:   seriesCSV2("t_over_T0,ppv_1n1p,ppv_2n1p", x, y1, y2),
	}
	return res, c.emit(res)
}

// Fig07 regenerates the SHIL locking ranges (paper Fig. 7): the V-shaped
// locking cone over SYNC amplitude, for both inverter styles, on a relative
// detuning axis so the two rings are directly comparable.
func (c *Context) Fig07() (*Result, error) {
	_, _, p1, err := c.Ring1()
	if err != nil {
		return nil, err
	}
	_, _, p2, err := c.Ring2()
	if err != nil {
		return nil, err
	}
	amps := gae.Linspace(0, 200e-6, 41)
	ch := plot.New("Fig. 7 — SHIL locking range vs SYNC amplitude",
		"SYNC amplitude [µA]", "relative detuning (f1−f0)/f0")
	csv := []string{"amp_uA,lo_1n1p,hi_1n1p,lo_2n1p,hi_2n1p"}
	build := func(pp *ppvT) ([]float64, []float64, []float64, error) {
		m := gae.NewModel(pp, pp.F0)
		pts, err := m.SweepSyncAmplitudeCtx(c.ctx(), 0, 2, amps, c.workers())
		if err != nil {
			return nil, nil, nil, err
		}
		ax := make([]float64, len(pts))
		lo := make([]float64, len(pts))
		hi := make([]float64, len(pts))
		for i, pt := range pts {
			ax[i] = pt.Amp * 1e6
			lo[i] = (pt.F1Lo - pp.F0) / pp.F0
			hi[i] = (pt.F1Hi - pp.F0) / pp.F0
		}
		return ax, lo, hi, nil
	}
	ax, lo1, hi1, err := build(p1)
	if err != nil {
		return nil, err
	}
	_, lo2, hi2, err := build(p2)
	if err != nil {
		return nil, err
	}
	ch.Add("1N1P lower edge", ax, lo1)
	ch.Add("1N1P upper edge", ax, hi1)
	ch.Add("2N1P lower edge", ax, lo2)
	ch.Add("2N1P upper edge", ax, hi2)
	for i := range ax {
		csv = append(csv, fmt.Sprintf("%.6g,%.6g,%.6g,%.6g,%.6g", ax[i], lo1[i], hi1[i], lo2[i], hi2[i]))
	}
	w1 := hi1[len(hi1)-1] - lo1[len(lo1)-1]
	w2 := hi2[len(hi2)-1] - lo2[len(lo2)-1]
	res := &Result{
		Name: "fig07", Title: ch.Title, Chart: ch,
		Metrics: map[string]float64{
			"width_at_200uA_1N1P": w1,
			"width_at_200uA_2N1P": w2,
			"width_ratio":         w2 / w1,
		},
		Notes: "paper: 2N1P's locking cone is wider (larger PPV 2nd harmonic)",
		CSV:   csv,
	}
	return res, c.emit(res)
}

// ppvT shortens the shared PPV type in this file's helpers.
type ppvT = ppvPkg.PPV

// Fig08 regenerates the locking phase error |Δφᵢ − Δφ̄ᵢ| across the locking
// range (paper Fig. 8): zero at band centre, growing toward the edges.
func (c *Context) Fig08() (*Result, error) {
	_, _, p, err := c.Ring1()
	if err != nil {
		return nil, err
	}
	const amp = 100e-6
	m := gae.NewModel(p, p.F0, gae.Injection{Name: "SYNC", Node: 0, Amp: amp, Harmonic: 2})
	d0, d1, err := m.SHILPhases()
	if err != nil {
		return nil, err
	}
	lo, hi := m.LockingBand()
	f1s := gae.Linspace(lo+(hi-lo)*0.01, hi-(hi-lo)*0.01, 81)
	pts, err := m.SweepPhaseErrorCtx(c.ctx(), f1s, []float64{d0, d1}, c.workers())
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	csv := []string{"f1_Hz,phase_error_cycles"}
	maxErr := 0.0
	for _, pt := range pts {
		for _, e := range pt.Errors {
			xs = append(xs, pt.F1)
			ys = append(ys, e)
			csv = append(csv, fmt.Sprintf("%.6g,%.6g", pt.F1, e))
			maxErr = math.Max(maxErr, e)
		}
	}
	ch := plot.New("Fig. 8 — locking phase error across the locking range (SYNC 100 µA)",
		"f1 [Hz]", "|Δφᵢ − Δφ̄ᵢ| (cycles)")
	ch.AddScatter("stable-lock phase error", xs, ys)
	res := &Result{
		Name: "fig08", Title: ch.Title, Chart: ch,
		Metrics: map[string]float64{
			"band_lo_Hz":       lo,
			"band_hi_Hz":       hi,
			"max_error_cycles": maxErr,
		},
		Notes: "paper: error ≈0 at band centre, grows toward the edges (approaching 1/8 cycle for a cosine g)",
		CSV:   csv,
	}
	return res, c.emit(res)
}

// fig10SyncAmp: SYNC drive for the D-latch studies, chosen so the D-input
// threshold lands near the paper's ≈50 µA (measured threshold ≈ 0.37·A_SYNC
// for this ring's |V2|/|V1| with a logic-aligned D input).
const fig10SyncAmp = 120e-6

// fig12Detune is the relative detuning used by the transient studies: the
// paper drives SYNC from a 2×9.6 kHz generator while the latch free-runs
// merely *near* 9.6 kHz; the residual detuning is what carries a latch off
// the antipodal saddle in a noise-free simulation.
const fig12Detune = 4e-4

// preFlipPhase returns the stable pre-flip lock phase nearest 0.5 of the
// given model (the latch holding logic 0 before the D input flips).
func preFlipPhase(m *gae.Model) float64 {
	best, bd := 0.5, math.Inf(1)
	for _, e := range m.StableEquilibria() {
		if d := gae.CircularDistance(e.Dphi, 0.5); d < bd {
			bd, best = d, e.Dphi
		}
	}
	return best
}

// Fig10 regenerates the D-latch graphical GAE solutions (paper Fig. 10):
// with SYNC fixed and the D amplitude rising, one stable lock vanishes.
func (c *Context) Fig10() (*Result, error) {
	_, _, p, err := c.Ring1()
	if err != nil {
		return nil, err
	}
	_, cal, err := c.calibration()
	if err != nil {
		return nil, err
	}
	dPhase := cmplx.Phase(p.Harmonic(0, 1))/(2*math.Pi) - 0.25 // aligns D with logic 1
	ch := plot.New("Fig. 10 — GAE solutions with SYNC 120 µA and rising D (EN=1)",
		"Δφ (cycles)", "g(Δφ) and LHS")
	dAmps := []float64{0, 30e-6, 50e-6, 100e-6}
	csv := []string{"dphi,lhs,g_D0,g_D30u,g_D50u,g_D100u"}
	const n = 241
	var xs []float64
	cols := make([][]float64, len(dAmps))
	metrics := map[string]float64{}
	for di, da := range dAmps {
		m := gae.NewModel(p, p.F0,
			gae.Injection{Name: "SYNC", Node: 0, Amp: fig10SyncAmp, Harmonic: 2, Phase: cal.SyncPhase},
			gae.Injection{Name: "D", Node: 0, Amp: da, Harmonic: 1, Phase: dPhase},
		)
		x, g := m.GCurve(n)
		xs = x
		cols[di] = g
		ch.Add(fmt.Sprintf("g, D=%.0f µA", da*1e6), x, g)
		metrics[fmt.Sprintf("stable_D%.0fu", da*1e6)] = float64(len(m.StableEquilibria()))
	}
	lhs := make([]float64, n)
	ch.Add("LHS (f1−f0)/f0 = 0", xs, lhs)
	for i := 0; i < n; i++ {
		row := fmt.Sprintf("%.6g,0", xs[i])
		for _, col := range cols {
			row += fmt.Sprintf(",%.6g", col[i])
		}
		csv = append(csv, row)
	}
	res := &Result{
		Name: "fig10", Title: ch.Title, Chart: ch, Metrics: metrics,
		Notes: "paper: one stable solution vanishes once D exceeds ≈50 µA",
		CSV:   csv,
	}
	return res, c.emit(res)
}

// Fig11 regenerates the equilibrium sweep vs D magnitude for EN=1 and EN=0
// (paper Fig. 11). EN=0 is the off transmission gate: the drive reaching n1
// is attenuated by the Roff divider (≈1e-4 of the source current).
func (c *Context) Fig11() (*Result, error) {
	_, _, p, err := c.Ring1()
	if err != nil {
		return nil, err
	}
	_, cal, err := c.calibration()
	if err != nil {
		return nil, err
	}
	dPhase := cmplx.Phase(p.Harmonic(0, 1))/(2*math.Pi) - 0.25
	base := gae.NewModel(p, p.F0,
		gae.Injection{Name: "SYNC", Node: 0, Amp: fig10SyncAmp, Harmonic: 2, Phase: cal.SyncPhase},
		gae.Injection{Name: "D", Node: 0, Amp: 0, Harmonic: 1, Phase: dPhase},
	)
	amps := gae.Linspace(0, 200e-6, 81)
	// EN = 0: series impedance Roff = 100 GΩ against the 10 MΩ source
	// impedance leaves ≈ Rsrc/Roff ≈ 1e-4 of the D current at n1.
	const offAtten = 1e-4
	offAmps := make([]float64, len(amps))
	for i, a := range amps {
		offAmps[i] = a * offAtten
	}
	on, err := base.SweepInjectionAmplitudeCtx(c.ctx(), 1, amps, c.workers())
	if err != nil {
		return nil, err
	}
	off, err := base.SweepInjectionAmplitudeCtx(c.ctx(), 1, offAmps, c.workers())
	if err != nil {
		return nil, err
	}
	ch := plot.New("Fig. 11 — stable GAE equilibria vs D magnitude (EN=1 and EN=0)",
		"D amplitude [µA]", "stable Δφ* (cycles)")
	var x1, y1, x0, y0 []float64
	csv := []string{"d_uA,en,stable_dphi"}
	thresholdOn := math.Inf(1)
	for i, pt := range on {
		for _, d := range pt.Stable {
			x1 = append(x1, amps[i]*1e6)
			y1 = append(y1, d)
			csv = append(csv, fmt.Sprintf("%.6g,1,%.6g", amps[i]*1e6, d))
		}
		if len(pt.Stable) == 1 && math.IsInf(thresholdOn, 1) {
			thresholdOn = amps[i] * 1e6
		}
	}
	for i, pt := range off {
		for _, d := range pt.Stable {
			x0 = append(x0, amps[i]*1e6)
			y0 = append(y0, d)
			csv = append(csv, fmt.Sprintf("%.6g,0,%.6g", amps[i]*1e6, d))
		}
	}
	ch.AddScatter("EN=1", x1, y1)
	ch.AddScatter("EN=0", x0, y0)
	res := &Result{
		Name: "fig11", Title: ch.Title, Chart: ch,
		Metrics: map[string]float64{
			"flip_threshold_uA_EN1": thresholdOn,
			"points_EN0_bistable":   float64(len(x0)),
		},
		Notes: "paper: EN=1 loses one branch above the D threshold; EN=0 keeps both branches at every D",
		CSV:   csv,
	}
	return res, c.emit(res)
}

// Fig12 regenerates the GAE bit-flip transients (paper Fig. 12): D below
// threshold never flips; just above flips slowly; stronger D flips fast.
func (c *Context) Fig12() (*Result, error) {
	_, _, p, err := c.Ring1()
	if err != nil {
		return nil, err
	}
	_, cal, err := c.calibration()
	if err != nil {
		return nil, err
	}
	dPhase := cmplx.Phase(p.Harmonic(0, 1))/(2*math.Pi) - 0.25
	f1 := p.F0 * (1 + fig12Detune)
	T1 := 1 / f1
	ch := plot.New("Fig. 12 — GAE transients predicting bit-flip timing (SYNC 120 µA)",
		"time [ms]", "Δφ (cycles)")
	metrics := map[string]float64{}
	csvHeader := "t_ms"
	var csvCols [][]float64
	var ts []float64
	for _, da := range []float64{30e-6, 50e-6, 100e-6, 150e-6} {
		m := gae.NewModel(p, f1,
			gae.Injection{Name: "SYNC", Node: 0, Amp: fig10SyncAmp, Harmonic: 2, Phase: cal.SyncPhase},
			gae.Injection{Name: "D", Node: 0, Amp: da, Harmonic: 1, Phase: dPhase},
		)
		// Start in the pre-flip logic-0 lock: the equilibrium of the same
		// model with D still aligned to logic 0.
		pre := gae.NewModel(p, f1,
			gae.Injection{Name: "SYNC", Node: 0, Amp: fig10SyncAmp, Harmonic: 2, Phase: cal.SyncPhase},
			gae.Injection{Name: "D", Node: 0, Amp: da, Harmonic: 1, Phase: dPhase + 0.5},
		)
		tr := m.TransientCtx(c.ctx(), preFlipPhase(pre), 0, 3000*T1, T1)
		// Resample onto a uniform grid for plotting/CSV.
		const n = 400
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			tt := float64(i) / (n - 1) * 3000 * T1
			x[i] = tt * 1e3
			y[i] = sampleAt(tr.T, tr.Dphi, tt)
		}
		ts = x
		csvCols = append(csvCols, y)
		csvHeader += fmt.Sprintf(",dphi_D%.0fu", da*1e6)
		ch.Add(fmt.Sprintf("D=%.0f µA", da*1e6), x, y)
		st := tr.SettleTime(0.02)
		flipped := gae.CircularDistance(math.Mod(math.Mod(tr.Final(), 1)+1, 1), 0) < 0.1
		metrics[fmt.Sprintf("flips_D%.0fu", da*1e6)] = b2f(flipped)
		if flipped {
			metrics[fmt.Sprintf("settle_ms_D%.0fu", da*1e6)] = st * 1e3
		}
	}
	csv := []string{csvHeader}
	for i := range ts {
		row := fmt.Sprintf("%.6g", ts[i])
		for _, col := range csvCols {
			row += fmt.Sprintf(",%.6g", col[i])
		}
		csv = append(csv, row)
	}
	res := &Result{
		Name: "fig12", Title: ch.Title, Chart: ch, Metrics: metrics,
		Notes: "paper: 30 µA fails to flip; 50 µA flips but much slower than 100 µA; 100→150 µA gains little",
		CSV:   csv,
	}
	return res, c.emit(res)
}

func sampleAt(ts, ys []float64, t float64) float64 {
	if len(ts) == 0 {
		return 0
	}
	lo, hi := 0, len(ts)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ts[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	if t <= ts[0] {
		return ys[0]
	}
	if t >= ts[len(ts)-1] {
		return ys[len(ys)-1]
	}
	f := (t - ts[lo]) / (ts[hi] - ts[lo])
	return ys[lo] + f*(ys[hi]-ys[lo])
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

func seriesCSV(header string, x, y []float64) []string {
	out := []string{header}
	for i := range x {
		out = append(out, fmt.Sprintf("%.6g,%.6g", x[i], y[i]))
	}
	return out
}

func seriesCSV2(header string, x, y1, y2 []float64) []string {
	out := []string{header}
	for i := range x {
		out = append(out, fmt.Sprintf("%.6g,%.6g,%.6g", x[i], y1[i], y2[i]))
	}
	return out
}
