package serve

import (
	"fmt"
	"io"

	"gnnmark/internal/autograd"
	"gnnmark/internal/nn"
)

// Weights is a frozen model snapshot: parameter values only — no tape, no
// optimizer state — held immutably and shared read-only across every
// serving replica. Replicas each own a model instance on their own device;
// LoadInto copies the frozen values into a replica's parameters at
// construction time, after which the snapshot is never written.
type Weights struct {
	params []nn.SavedParam
}

// Freeze reads a training checkpoint stream (nn.SaveTraining format) and
// returns its weights, discarding the optimizer state — the serving plane
// restores inference behavior, not training progress.
func Freeze(r io.Reader) (*Weights, error) {
	params, err := nn.DecodeTrainingParams(r)
	if err != nil {
		return nil, fmt.Errorf("serve: freezing checkpoint: %w", err)
	}
	return &Weights{params: params}, nil
}

// LoadInto copies the frozen values into params, which must be the frozen
// model's parameter set: same order, names and shapes (the rule a training
// checkpoint is restored under). On a mismatch nothing is copied. The
// snapshot itself is not mutated, so one Weights can initialize any number
// of replicas.
func (w *Weights) LoadInto(params []*autograd.Param) error {
	if err := nn.AssignParams(w.params, params); err != nil {
		return fmt.Errorf("serve: loading frozen snapshot: %w", err)
	}
	return nil
}
