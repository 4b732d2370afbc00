package variation

import (
	"context"

	"repro/internal/engine"
	"repro/internal/ringosc"
)

// EvaluateBatch runs cfgs through the batched corner path, warm-started
// from nominal's orbit, so a test can hand it corners the batch cannot take.
func EvaluateBatch(ctx context.Context, eng *engine.Engine, nominal ringosc.Config, cfgs []ringosc.Config) ([]CornerResult, error) {
	nom, err := resolveNominal(ctx, eng, nominal)
	if err != nil {
		return nil, err
	}
	return batchEvalCorners(ctx, eng, nom, cfgs)
}
