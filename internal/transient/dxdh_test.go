package transient_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// TestStepDerivativeMatchesFiniteDifference: a fixed-step sensitivity run's
// DXDH, the derivative of the final state with respect to the step with
// the step count fixed, matches a central difference of x(T1) over H on
// the 3-stage ring, where T1 = steps·H moves with H: BE and Trap, Gear2
// (its BE first step, BDF2 steps and, over a remainder, its BE last step),
// on both backends, and a Trap lane that retakes steps in halves.
func TestStepDerivativeMatchesFiniteDifference(t *testing.T) {
	r, err := ringosc.Build(ringosc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := circuit.NewBatch([]*circuit.System{r.Sys})
	if err != nil {
		t.Fatal(err)
	}
	T := 1 / r.EstimatedF0()
	type stepCase struct {
		method    transient.Method
		steps, h  float64
		maxNewton int
	}
	var cases []stepCase
	for _, m := range []transient.Method{transient.BE, transient.Trap, transient.Gear2} {
		cases = append(cases, stepCase{m, 64, T / 64, 0}, stepCase{m, 64.37, T / 64, 0})
	}
	// Five steps per period at four Newton iterations a step: the corrector
	// fails at full steps and the lane halves them (halvingBatch's lane 1).
	cases = append(cases, stepCase{transient.Trap, 24, 2e-5, 4})
	for _, c := range cases {
		for _, bk := range oracleBackends {
			name := fmt.Sprintf("%v/%g steps/%v", c.method, c.steps, bk)
			run := func(h float64) *transient.BatchResult {
				res, err := transient.RunBatch(context.Background(), b, r.KickStart(), transient.BatchOptions{
					Options: transient.Options{Method: c.method, MaxNewton: c.maxNewton, NewtonTol: 1e-14, Sensitivity: true, Backend: bk},
					H:       []float64{h}, T1: []float64{c.steps * h},
				})
				if err != nil || res.Err[0] != nil {
					t.Fatalf("%s: %v %v", name, err, res.Err[0])
				}
				return res
			}
			res := run(c.h)
			if c.maxNewton > 0 && res.Rejected == 0 {
				t.Fatalf("%s: no step was halved", name)
			}
			const rel = 1e-6
			xp, xm := run(c.h*(1+rel)).LaneX(0), run(c.h*(1-rel)).LaneX(0)
			fd := linalg.NewVec(len(xp))
			for i := range fd {
				fd[i] = (xp[i] - xm[i]) / (2 * rel * c.h)
			}
			diff := linalg.NewVec(len(fd))
			diff.Sub(linalg.Vec(res.DXDH), fd)
			if e := diff.NormInf() / fd.NormInf(); !(e <= 1e-6) {
				t.Errorf("%s: DXDH %v, central difference %v: relative error %.2g", name, res.DXDH, fd, e)
			}
		}
	}
}

// TestStepDerivativeLanesIndependent: each lane's DXDH in a K-lane batch is
// bit for bit its one-lane run's — four corners with steps of their own
// under Trap and Gear2, and the two-lane batch whose second lane halves.
func TestStepDerivativeLanesIndependent(t *testing.T) {
	const K = 4
	b, err := circuit.NewBatch(cornerRings(t, K))
	if err != nil {
		t.Fatal(err)
	}
	h := []float64{2e-7, 2.1e-7, 2.2e-7, 2.3e-7}
	for _, m := range []transient.Method{transient.Trap, transient.Gear2} {
		run := func(active []int) *transient.BatchResult {
			res, err := transient.RunBatch(context.Background(), b, kickedStart(K, b.N), transient.BatchOptions{
				Options: transient.Options{Method: m, Sensitivity: true},
				H:       h, T1: laneEnds(h, 40), Active: active,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		all := run(nil)
		for k := 0; k < K; k++ {
			solo := run([]int{k})
			if i := firstBitDiff(solo.DXDH[k*b.N:(k+1)*b.N], all.DXDH[k*b.N:(k+1)*b.N]); i >= 0 {
				t.Errorf("%v lane %d: DXDH entry %d differs from its solo run", m, k, i)
			}
		}
	}
	both, _, _, _ := halvingBatch(t, nil)
	n := both.N
	for k := range 2 {
		solo, _, _, _ := halvingBatch(t, []int{k})
		if i := firstBitDiff(solo.DXDH[k*n:(k+1)*n], both.DXDH[k*n:(k+1)*n]); i >= 0 {
			t.Errorf("halving batch lane %d: DXDH entry %d differs from its solo run", k, i)
		}
		if math.IsNaN(both.DXDH[k*n]) || both.DXDH[k*n] == 0 {
			t.Errorf("halving batch lane %d: DXDH %v", k, both.DXDH[k*n:(k+1)*n])
		}
	}
}
