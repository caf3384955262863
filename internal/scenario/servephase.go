package scenario

import (
	"fmt"
	"sort"

	"gnnmark/internal/core"
	"gnnmark/internal/fault"
	"gnnmark/internal/models"
	"gnnmark/internal/serve"
)

// runServe freezes the trained weights and drives the serving phase:
// calibrate the batch-1 service time on a cold replica, generate the open
// arrival trace (with any burst events superposed), fan the frozen
// weights out to per-slot replicas (replica i serves on the device model of
// fleet slot i mod world, so heterogeneous fleets serve heterogeneously),
// and run the discrete-event server.
func (sc *Scenario) runServe(cfg core.RunConfig, out *Outcome) error {
	if out.trained == nil {
		return fmt.Errorf("scenario: no trained replica survived to serve")
	}
	sv, ok := out.trained.(models.Servable)
	if !ok {
		return fmt.Errorf("scenario: workload %s does not serve embeddings", sc.Workload.Key)
	}
	weights, err := core.Freeze(sv)
	if err != nil {
		return err
	}
	items := sv.NumItems()
	spec := sc.Serve

	// Replica r serves on the device model of fleet slot r mod world.
	// Serving measures the forward passes only: the clock is rebased past
	// construction so burst windows and throttle events are phase-relative.
	newPool := func(n int) (*core.ServingPool, error) {
		pool, err := core.NewServingPool(cfg, n, len(cfg.Devices), weights)
		if err == nil {
			for _, rep := range pool.Replicas {
				rep.Rebase()
			}
		}
		return pool, err
	}

	// Calibration: one cold replica, one batch-1 request.
	cal, err := newPool(1)
	if err != nil {
		return err
	}
	_, d1, err := cal.Serving[0].Serve([]int32{0})
	cal.Close()
	if err != nil {
		return err
	}
	out.ServeBatchOneSeconds = d1

	qps := spec.LoadFactor * float64(spec.Replicas) / d1
	duration := spec.DurationFactor * d1
	reqs := serve.OpenArrivals(serve.LoadConfig{
		Seed: sc.Seed, QPS: qps, Duration: duration, Items: items,
	})

	// Superpose the burst events: each adds an independent Poisson
	// process at (factor-1) x the base rate inside its window, so the
	// merged trace bursts to factor x qps there.
	for i, ev := range sc.lowered(toServeBurst) {
		extra := serve.OpenArrivals(serve.LoadConfig{
			Seed:     sc.Seed + int64(i+1),
			QPS:      (ev.Factor - 1) * qps,
			Duration: ev.DurationFrac * duration,
			Items:    items,
		})
		for _, r := range extra {
			r.Time += ev.AtFrac * duration
			reqs = append(reqs, r)
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Time < reqs[j].Time })
	for i := range reqs {
		reqs[i].Seq = i
	}

	// Build the serving pool; serve-plane thermal throttles attach to their
	// replica's device (firing on its accumulated busy time).
	pool, err := newPool(spec.Replicas)
	if err != nil {
		return err
	}
	defer pool.Close()
	sched := sc.faultSchedule(PlaneServe)
	for r, rep := range pool.Replicas {
		if throttles := fault.SlotEvents(sched, r); len(throttles) > 0 {
			rep.Dev.AttachHealth(fault.NewMonitor(throttles, true))
		}
	}

	stats, err := serve.New(serve.Config{
		Endpoint:       "scenario",
		MaxBatch:       spec.MaxBatch,
		MaxWaitSeconds: spec.MaxWaitFactor * d1,
		QueueCap:       spec.QueueCap,
		CacheRows:      spec.CacheRows,
	}, pool.Serving).Run(serve.NewSliceSource(reqs))
	if err != nil {
		return err
	}
	out.Serve = &stats
	return nil
}
