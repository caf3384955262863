package models

import (
	"errors"
	"slices"
	"testing"

	"gnnmark/internal/ops"
)

// scriptedEpochs is a workload stub whose epochs return 1, 2, 3, ...
type scriptedEpochs struct{ n int }

func (s *scriptedEpochs) TrainEpoch() float64 { s.n++; return float64(s.n) }

// TestTrainContract pins Env.Train's books: seconds are differences of the
// clock's readings (the first from zero), a stop from end ends the run after
// that epoch is booked, an error from end returns the earlier epochs with
// the current one unbooked, and zero epochs train nothing.
func TestTrainContract(t *testing.T) {
	env := NewEnv(ops.New(nil), 1)
	never := func(int, float64, float64) (bool, error) { return false, nil }
	scripted := func(readings ...float64) func() float64 {
		return func() float64 { r := readings[0]; readings = readings[1:]; return r }
	}

	w := &scriptedEpochs{}
	log, err := env.Train(w, 3, scripted(1.5, 4, 4.25), never)
	if err != nil || !slices.Equal(log.Losses, []float64{1, 2, 3}) || !slices.Equal(log.EpochSeconds, []float64{1.5, 2.5, 0.25}) {
		t.Fatalf("three epochs: %+v, %v", log, err)
	}

	w = &scriptedEpochs{}
	var seen []int
	log, err = env.Train(w, 5, nil, func(ep int, loss, secs float64) (bool, error) {
		seen = append(seen, ep)
		return loss >= 2, nil
	})
	if err != nil || w.n != 2 || !slices.Equal(seen, []int{0, 1}) || !slices.Equal(log.Losses, []float64{1, 2}) || log.EpochSeconds != nil {
		t.Fatalf("stop at loss 2 without a clock: trained %d, hook saw %v, %+v, %v", w.n, seen, log, err)
	}

	w = &scriptedEpochs{}
	boom := errors.New("boom")
	log, err = env.Train(w, 5, scripted(1, 2, 3), func(ep int, _, secs float64) (bool, error) {
		if ep == 2 {
			if secs != 1 {
				t.Errorf("epoch 2's seconds %v, want 1", secs)
			}
			return false, boom
		}
		return false, nil
	})
	if err != boom || w.n != 3 || !slices.Equal(log.Losses, []float64{1, 2}) || !slices.Equal(log.EpochSeconds, []float64{1, 1}) {
		t.Fatalf("error at epoch 2: trained %d, %+v, %v", w.n, log, err)
	}

	w = &scriptedEpochs{}
	log, err = env.Train(w, 0, scripted(), func(int, float64, float64) (bool, error) {
		t.Error("end called with zero epochs")
		return false, nil
	})
	if err != nil || w.n != 0 || log.Losses != nil || log.EpochSeconds != nil {
		t.Fatalf("zero epochs: trained %d, %+v, %v", w.n, log, err)
	}
}
