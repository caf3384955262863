package bench

import (
	"cmp"
	"fmt"

	"gnnmark/internal/core"
	"gnnmark/internal/ddp"
	"gnnmark/internal/fault"
)

// FigFLevel is one churn level: the injected fault counts and both
// strategies' outcomes under the identical schedule (Replicas and Rounds
// cleared, so a study does not pin trained models).
type FigFLevel struct {
	// Fatals and Degraded are the event counts drawn into the schedule.
	Fatals, Degraded  int
	Elastic, FailStop ddp.ElasticResult
}

// FigFWorkload holds one workload's goodput-vs-churn series.
type FigFWorkload struct {
	Workload string
	Levels   []FigFLevel
}

// FigFResult is everything the figf command prints: Figure F, goodput
// under churn for elastic drop-and-reshard vs fail-stop replacement.
type FigFResult struct {
	GPUs      int
	Epochs    int
	Seed      int64
	Workloads []FigFWorkload
}

// FigF runs the goodput-under-churn study: for each workload, draw seeded
// chaos schedules of rising churn (fatal + degraded health events over the
// run's horizon) and train through each schedule twice — once with elastic
// recovery (drop the dead replicas, re-shard, reload the epoch checkpoint,
// resume within seconds) and once with the fail-stop baseline (rebuild the
// full world after waiting out node replacement). Identical schedules feed
// both arms, so the goodput gap is purely the recovery policy.
//
// cfg.GPUs sets the fleet size (default 4); cfg.Workload restricts the
// study to one workload (default: ARGA and DGCN, the two both multi-GPU
// discussions single out); cfg.Dataset, when set, must be a dataset of
// every workload studied.
func FigF(cfg core.RunConfig) (*FigFResult, error) {
	if cfg.GPUs <= 1 {
		cfg.GPUs = 4
	}
	cfg.Epochs, cfg.Seed = cmp.Or(cfg.Epochs, 3), cmp.Or(cfg.Seed, 1)
	keys := []string{"ARGA", "DGCN"}
	if cfg.Workload != "" {
		keys = []string{cfg.Workload}
	}
	out := &FigFResult{GPUs: cfg.GPUs, Epochs: cfg.Epochs, Seed: cfg.Seed}
	for _, key := range keys {
		c := cfg
		c.Workload = key
		factory := core.DDPFactory(c)
		// Event timestamps compare against barrier-time device clocks, which
		// advance with compute; probe one healthy epoch's critical path so
		// the churn horizon spans the whole run.
		probe, err := ddp.Train(factory, c.GPUs, 1, ddp.ClusterConfig{})
		if err != nil {
			return nil, fmt.Errorf("figf: probing %s: %w", key, err)
		}
		horizon := probe.ComputeSeconds * float64(c.Epochs)

		wl := FigFWorkload{Workload: key}
		for _, lvl := range []struct{ f, d int }{{0, 0}, {1, 2}, {2, 4}, {3, 6}} {
			if lvl.f > c.GPUs-1 {
				continue // RandomSchedule always leaves a survivor
			}
			sched := fault.RandomSchedule(c.Seed, fault.ChurnConfig{
				Slots: c.GPUs, Horizon: horizon, Fatals: lvl.f, Degraded: lvl.d,
			})
			el, err := ddp.RunElastic(factory, c.GPUs, c.Epochs, ddp.ElasticOptions{Schedule: sched})
			if err != nil {
				return nil, fmt.Errorf("figf: elastic %s churn %d/%d: %w", key, lvl.f, lvl.d, err)
			}
			fs, err := ddp.RunElastic(factory, c.GPUs, c.Epochs, ddp.ElasticOptions{Schedule: sched, FailStop: true})
			if err != nil {
				return nil, fmt.Errorf("figf: fail-stop %s churn %d/%d: %w", key, lvl.f, lvl.d, err)
			}
			el.Replicas, el.Rounds, fs.Replicas, fs.Rounds = nil, nil, nil, nil
			wl.Levels = append(wl.Levels, FigFLevel{Fatals: lvl.f, Degraded: lvl.d, Elastic: el, FailStop: fs})
		}
		out.Workloads = append(out.Workloads, wl)
	}
	return out, nil
}

// Figure is the goodput-under-churn study: one panel per workload.
func (res *FigFResult) Figure() Figure {
	f := Figure{ID: "figf", Title: fmt.Sprintf("figf: goodput under churn — elastic drop-and-reshard vs fail-stop replacement (%d GPUs, %d epochs, seed %d)",
		res.GPUs, res.Epochs, res.Seed),
		Notes: []string{"", "goodput = useful seconds / total seconds; identical seeded schedules feed both arms,",
			"so the gap is purely the recovery policy (seconds of re-shard vs minutes of replacement)."}}
	wide := func(head string) Column { return Column{head, 16, "%.4f", false} }
	count := func(head string, width int) Column { return Column{head, width, "%d", false} }
	columns := []Column{count("fatals", 8), count("degraded", 8),
		wide("elastic goodput"), count("surv", 9), count("recov", 10),
		wide("failstop goodput"), count("surv", 9), count("recov", 10), {"advantage", 10, "%.2fx", false}}
	for _, wl := range res.Workloads {
		p := Figure{Title: wl.Workload + ":", Columns: columns}
		for _, lvl := range wl.Levels {
			adv := 0.0
			if lvl.FailStop.Goodput > 0 {
				adv = lvl.Elastic.Goodput / lvl.FailStop.Goodput
			}
			p.add(lvl.Fatals, lvl.Degraded,
				lvl.Elastic.Goodput, len(lvl.Elastic.Survivors), lvl.Elastic.Recoveries,
				lvl.FailStop.Goodput, len(lvl.FailStop.Survivors), lvl.FailStop.Recoveries, adv)
		}
		f.Panels = append(f.Panels, p)
	}
	return f
}
