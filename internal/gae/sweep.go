package gae

// Sweep utilities: the DC-sweep analyses the paper's tools run over SYNC
// amplitude, detuning frequency and logic-input magnitude (Figs. 7, 8, 11
// and 14).
//
// Every sweep point is an independent evaluation of a read-only Model copy,
// so the Ctx variants fan the grid out over a bounded worker pool
// (internal/parallel). Results are collected in grid order and are
// bit-identical at any worker count; the plain variants are serial
// single-point wrappers kept for source compatibility.

import (
	"context"

	"repro/internal/diag"
	"repro/internal/parallel"
)

// LockPoint is one sample of a locking-range sweep.
type LockPoint struct {
	Amp        float64 // swept injection amplitude, A
	F1Lo, F1Hi float64 // locking band edges (absolute Hz)
	Locks      bool
}

// SweepSyncAmplitudeCtx computes the locking band as a function of SYNC
// amplitude (Fig. 7's V-shaped locking cone). syncNode/syncHarm describe the
// SYNC injection; other injections in the model are held fixed. The points
// run on a worker pool (workers <= 0 means one per CPU) under ctx's
// cancellation.
func (m *Model) SweepSyncAmplitudeCtx(ctx context.Context, syncNode, syncHarm int, amps []float64, workers int) ([]LockPoint, error) {
	defer diag.SpanFrom(ctx, "gae.sweep").End()
	return parallel.MapWorkerCtx(ctx, len(amps), workers, func(wctx context.Context, _, i int) (LockPoint, error) {
		diag.FromContext(wctx).Inc(diag.SweepPoints)
		a := amps[i]
		mm := m.With(Injection{Name: "sweep-sync", Node: syncNode, Amp: a, Harmonic: syncHarm})
		lo, hi := mm.LockingBand()
		return LockPoint{Amp: a, F1Lo: lo, F1Hi: hi, Locks: hi > lo}, nil
	})
}

// EquilibriumPoint is one sample of an equilibrium sweep: all equilibria of
// the model at a given swept parameter value.
type EquilibriumPoint struct {
	Param  float64
	Equil  []Equilibrium
	Stable []float64 // stable Δφ* values only (convenience)
}

func equilibriumPointAt(mm *Model, param float64) EquilibriumPoint {
	eq := mm.Equilibria()
	p := EquilibriumPoint{Param: param, Equil: eq}
	for _, e := range eq {
		if e.Stable {
			p.Stable = append(p.Stable, e.Dphi)
		}
	}
	return p
}

// SweepInjectionAmplitudeCtx sweeps the amplitude of one injection
// (identified by index in the model's list) and records every equilibrium —
// the Fig. 11 and Fig. 14 machinery — on a worker pool under ctx's
// cancellation. The model itself is unchanged.
func (m *Model) SweepInjectionAmplitudeCtx(ctx context.Context, index int, amps []float64, workers int) ([]EquilibriumPoint, error) {
	defer diag.SpanFrom(ctx, "gae.sweep").End()
	return parallel.MapWorkerCtx(ctx, len(amps), workers, func(wctx context.Context, _, i int) (EquilibriumPoint, error) {
		diag.FromContext(wctx).Inc(diag.SweepPoints)
		mm := *m
		mm.Injections = append([]Injection(nil), m.Injections...)
		mm.Injections[index].Amp = amps[i]
		return equilibriumPointAt(&mm, amps[i]), nil
	})
}

// SweepDetuningCtx sweeps f1 and records equilibria (Fig. 8's input) on a
// worker pool under ctx's cancellation.
func (m *Model) SweepDetuningCtx(ctx context.Context, f1s []float64, workers int) ([]EquilibriumPoint, error) {
	defer diag.SpanFrom(ctx, "gae.sweep").End()
	return parallel.MapWorkerCtx(ctx, len(f1s), workers, func(wctx context.Context, _, i int) (EquilibriumPoint, error) {
		diag.FromContext(wctx).Inc(diag.SweepPoints)
		mm := *m
		mm.F1 = f1s[i]
		return equilibriumPointAt(&mm, f1s[i]), nil
	})
}

// PhaseErrorPoint is one sample of the Fig. 8 locking-phase-error plot.
type PhaseErrorPoint struct {
	F1     float64
	Errors []float64 // |Δφᵢ − Δφ̄ᵢ| per stable lock, cycles
}

// SweepPhaseErrorCtx computes, across the detunings f1s, the circular
// distance of every stable lock phase from the reference phases refs
// (typically the zero-detuning SHIL phases), on a worker pool under ctx's
// cancellation. Points outside the locking range yield empty Errors.
func (m *Model) SweepPhaseErrorCtx(ctx context.Context, f1s []float64, refs []float64, workers int) ([]PhaseErrorPoint, error) {
	defer diag.SpanFrom(ctx, "gae.sweep").End()
	return parallel.MapWorkerCtx(ctx, len(f1s), workers, func(wctx context.Context, _, i int) (PhaseErrorPoint, error) {
		diag.FromContext(wctx).Inc(diag.SweepPoints)
		mm := *m
		mm.F1 = f1s[i]
		return PhaseErrorPoint{F1: f1s[i], Errors: mm.LockedPhaseVsReference(refs)}, nil
	})
}

// CornerBand is the locking band of one corner's model in an ensemble
// sweep.
type CornerBand struct {
	F1Lo, F1Hi float64
	Locks      bool
}

// LockingBandsCtx is the corner-ensemble analogue of the scalar sweeps
// above: a Monte-Carlo batch drains the GAE stage of all its corner models
// through one fan-out instead of per-corner calls, sharing the worker pool
// and diagnostics span. Results are in model order and bit-identical at any
// worker count. Nil models yield a zero CornerBand.
func LockingBandsCtx(ctx context.Context, models []*Model, workers int) ([]CornerBand, error) {
	defer diag.SpanFrom(ctx, "gae.corners").End()
	return parallel.MapWorkerCtx(ctx, len(models), workers, func(wctx context.Context, _, i int) (CornerBand, error) {
		if models[i] == nil {
			return CornerBand{}, nil
		}
		diag.FromContext(wctx).Inc(diag.SweepPoints)
		lo, hi := models[i].LockingBand()
		return CornerBand{F1Lo: lo, F1Hi: hi, Locks: hi > lo}, nil
	})
}

// Linspace returns n evenly spaced values over [lo, hi] inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}
