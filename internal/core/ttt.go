package core

import "fmt"

// TTTResult is the outcome of a time-to-train run: the MLPerf-style metric
// the paper planned to adopt ("we plan to update our suite using the
// time-to-train metric proposed by the developers of MLPerf").
type TTTResult struct {
	Workload string
	Dataset  string
	// TargetLoss is the convergence threshold.
	TargetLoss float64
	// Epochs is the number of epochs run (== MaxEpochs when not converged).
	Epochs int
	// Converged reports whether the target was reached within MaxEpochs.
	Converged bool
	// SimSeconds is the simulated GPU time spent (kernels + exposed launch
	// overhead + transfers) until convergence or cutoff.
	SimSeconds float64
	// FinalLoss is the last epoch's mean loss.
	FinalLoss float64
	// LossCurve holds every epoch's loss.
	LossCurve []float64
}

// TimeToTrain trains the configured workload until its epoch loss falls to
// targetLoss or maxEpochs elapse, and reports the simulated time consumed.
func TimeToTrain(cfg RunConfig, targetLoss float64, maxEpochs int) (TTTResult, error) {
	if maxEpochs <= 0 {
		return TTTResult{}, fmt.Errorf("core: TimeToTrain requires positive maxEpochs, got %d", maxEpochs)
	}
	rep, err := NewReplica(cfg, 0, 0, 1)
	if err != nil {
		return TTTResult{}, err
	}
	defer rep.Env.Close()
	rep.Rebase()

	res := TTTResult{
		Workload:   rep.Spec.Key,
		Dataset:    rep.Dataset,
		TargetLoss: targetLoss,
	}
	for ep := 0; ep < maxEpochs; ep++ {
		loss, err := rep.Epoch()
		if err != nil {
			return TTTResult{}, err
		}
		res.LossCurve = append(res.LossCurve, loss)
		res.Epochs = ep + 1
		res.FinalLoss = loss
		if loss <= targetLoss {
			res.Converged = true
			break
		}
	}
	res.SimSeconds = rep.Env.SimClock()
	return res, nil
}
