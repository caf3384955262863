package bench

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"gnnmark/internal/core"
	"gnnmark/internal/datasets"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/profiler"
)

// SweepPoint is one setting of a swept hyperparameter with its profile.
type SweepPoint struct {
	Value        int
	Report       profiler.Report
	EpochSeconds float64
	Loss         float64
}

// sweepBuilders maps "workload/param" to a constructor taking the swept
// value. These are the design knobs DESIGN.md calls out: model depth and
// width (DGCN), temporal channel width (STGCN), transformer width (GW),
// sampler walk count (PSAGE), and batch size (TLSTM).
var sweepBuilders = map[string]func(env *models.Env, v int) models.Workload{
	"DGCN/layers": func(env *models.Env, v int) models.Workload {
		return models.NewDGCN(env, datasets.MolHIV(env.RNG), models.DGCNConfig{Layers: v})
	},
	"DGCN/hidden": func(env *models.Env, v int) models.Workload {
		return models.NewDGCN(env, datasets.MolHIV(env.RNG), models.DGCNConfig{Hidden: v})
	},
	"STGCN/channels": func(env *models.Env, v int) models.Workload {
		return models.NewSTGCN(env, datasets.METRLA(env.RNG), models.STGCNConfig{Channels: v})
	},
	"GW/dim": func(env *models.Env, v int) models.Workload {
		return models.NewGW(env, datasets.AGENDA(env.RNG), models.GWConfig{Dim: v})
	},
	"PSAGE/walks": func(env *models.Env, v int) models.Workload {
		return models.NewPSAGE(env, datasets.MovieLens(env.RNG), models.PSAGEConfig{NumWalks: v})
	},
	"TLSTM/batch": func(env *models.Env, v int) models.Workload {
		return models.NewTLSTM(env, datasets.SST(env.RNG), models.TLSTMConfig{BatchSize: v})
	},
}

// SweepParams lists the supported "workload/param" sweep keys, sorted: the
// list reaches the unknown-key error, and map order must not reach output.
func SweepParams() []string {
	out := make([]string, 0, len(sweepBuilders))
	for k := range sweepBuilders {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Sweep profiles one workload across a hyperparameter's values. key is
// "WORKLOAD/param" (see SweepParams).
func Sweep(key string, values []int, cfg core.RunConfig) ([]SweepPoint, error) {
	build, ok := sweepBuilders[key]
	if !ok {
		return nil, fmt.Errorf("bench: unknown sweep %q (have %v)", key, SweepParams())
	}
	var out []SweepPoint
	for _, v := range values {
		var w models.Workload
		env, err := cfg.Build(0, 0, 1, func(env *models.Env) { w = build(env, v) })
		if err != nil {
			return nil, err
		}
		// Construction may launch preprocessing kernels; profile training only.
		dev := env.E.Device()
		prof := profiler.Attach(dev)
		env.OnIteration = prof.NextIteration
		dev.ResetClock()
		epochs := cmp.Or(cfg.Epochs, 1)
		var loss float64
		for e := 0; e < epochs && err == nil; e++ {
			loss, err = env.Epoch(w)
		}
		env.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			Value:        v,
			Report:       prof.Snapshot(),
			EpochSeconds: dev.ElapsedSeconds() / float64(epochs),
			Loss:         loss,
		})
	}
	return out, nil
}

// FormatSweep renders a sweep as a table of time, GFLOPS, and the op-mix
// shares most sensitive to the knob.
func FormatSweep(key string, points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep %s\n", key)
	fmt.Fprintf(&b, "%8s %12s %10s %10s %10s %10s\n",
		"value", "epoch ms", "GFLOPS", "gemm%", "elem%", "conv%")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d %12.4f %10.0f %9.1f%% %9.1f%% %9.1f%%\n",
			p.Value, 1e3*p.EpochSeconds, p.Report.GFLOPS,
			100*p.Report.TimeShare[gpu.OpGEMM],
			100*p.Report.TimeShare[gpu.OpElementWise],
			100*p.Report.TimeShare[gpu.OpConv])
	}
	return b.String()
}
