package pss_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
)

// TestConcurrentExtractionsShareOneSystem: four goroutines shoot and
// extract the PPV of one shared System at once, on the dense and on a
// forced sparse backend. The one-lane batches they build share the System's
// sparse plan and alias its C values, so under -race this certifies that a
// solve only reads them; each result must equal a solo run's bit for bit.
func TestConcurrentExtractionsShareOneSystem(t *testing.T) {
	r := buildRing(t, ringosc.DefaultConfig())
	for _, bk := range []linalg.Backend{linalg.BackendDense, linalg.BackendSparse} {
		opt := pss.Options{GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 128, Backend: bk}
		extract := func() (*pss.Solution, *ppv.PPV, error) {
			ctx := context.Background()
			sol, err := pss.ShootAutonomousCtx(ctx, r.Sys, r.KickStart(), opt)
			if err != nil {
				return nil, nil, err
			}
			p, err := ppv.FromSolutionCtx(ctx, r.Sys, sol)
			return sol, p, err
		}
		sol, p, err := extract()
		if err != nil {
			t.Fatalf("%v: %v", bk, err)
		}
		const G = 4
		sols, ps, errs := make([]*pss.Solution, G), make([]*ppv.PPV, G), make([]error, G)
		var wg sync.WaitGroup
		for g := range G {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sols[g], ps[g], errs[g] = extract()
			}()
		}
		wg.Wait()
		for g := range G {
			if errs[g] != nil {
				t.Fatalf("%v goroutine %d: %v", bk, g, errs[g])
			}
			what := fmt.Sprintf("%v goroutine %d", bk, g)
			requireSameSolution(t, what, sols[g], sol)
			requireSamePPV(t, what, ps[g], p)
		}
	}
}
