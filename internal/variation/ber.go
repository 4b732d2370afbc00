package variation

import (
	"context"

	"repro/internal/noise"
	"repro/internal/parallel"
)

// CornerBERs runs the hop-counting bit-error study on every corner's
// SHIL-locked latch model: corner i's stochastic ensemble (noise.EstimateBER
// on the SoA lanes) is seeded with parallel.SubSeed(opt.Seed, i), so the
// per-corner estimates are decorrelated from each other yet reproducible at
// any worker count and in any corner order. The returned slice is indexed like corners; feed the BER
// values to noise.Yield for the parametric-yield fraction.
func CornerBERs(ctx context.Context, corners []CornerResult, d float64, opt noise.BEROptions) ([]noise.BERResult, error) {
	out := make([]noise.BERResult, len(corners))
	base := opt.Seed
	for i, cr := range corners {
		opt.Seed = parallel.SubSeed(base, i)
		res, err := noise.EstimateBER(ctx, cr.Model, d, opt)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}
