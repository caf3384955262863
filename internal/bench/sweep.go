package bench

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/profiler"
)

// SweepPoint is one setting of a swept hyperparameter with its profile.
type SweepPoint struct {
	Value        int
	Report       profiler.Report
	EpochSeconds float64
}

// sweepConfigs maps "workload/param" to the model's config struct with the
// swept value in the param's field. These are the design knobs DESIGN.md
// calls out: model depth and width (DGCN), temporal channel width (STGCN),
// transformer width (GW), sampler walk count (PSAGE), and batch size (TLSTM).
var sweepConfigs = map[string]func(v int) any{
	"DGCN/layers":    func(v int) any { return models.DGCNConfig{Layers: v} },
	"DGCN/hidden":    func(v int) any { return models.DGCNConfig{Hidden: v} },
	"STGCN/channels": func(v int) any { return models.STGCNConfig{Channels: v} },
	"GW/dim":         func(v int) any { return models.GWConfig{Dim: v} },
	"PSAGE/walks":    func(v int) any { return models.PSAGEConfig{NumWalks: v} },
	"TLSTM/batch":    func(v int) any { return models.TLSTMConfig{BatchSize: v} },
}

// SweepParams lists the supported "workload/param" sweep keys, sorted: the
// list reaches the unknown-key error, and map order must not reach output.
func SweepParams() []string {
	out := make([]string, 0, len(sweepConfigs))
	for k := range sweepConfigs {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Sweep profiles one workload across a hyperparameter's values. key is
// "WORKLOAD/param" (see SweepParams). Every value must be at least 1: a zero
// would take the model's default and a negative one cannot be built.
func Sweep(key string, values []int, cfg core.RunConfig) ([]SweepPoint, error) {
	config, ok := sweepConfigs[key]
	if !ok {
		return nil, fmt.Errorf("bench: unknown sweep %q (have %v)", key, SweepParams())
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("bench: sweep %s: no values", key)
	}
	for _, v := range values {
		if v < 1 {
			return nil, fmt.Errorf("bench: sweep %s: value %d must be at least 1", key, v)
		}
	}
	cfg.Workload, _, _ = strings.Cut(key, "/")
	cfg.Dataset = ""
	cfg.Epochs = cmp.Or(cfg.Epochs, 1)
	var out []SweepPoint
	for _, v := range values {
		cfg.Model = config(v)
		res, err := core.Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{Value: v, Report: res.Report, EpochSeconds: res.SimSeconds / float64(len(res.Losses))})
	}
	return out, nil
}

// sweepFigure runs the study's sweep and tabulates it.
func sweepFigure(s Study) (Figure, error) {
	points, err := Sweep(s.Sweep, s.Values, s.RunConfig)
	return sweepTable(s.Sweep, points), err
}

// sweepTable is a sweep as a table of time, GFLOPS, and the op-mix shares
// most sensitive to the knob.
func sweepTable(key string, points []SweepPoint) Figure {
	f := Figure{ID: "sweep", Title: "sweep " + key,
		Columns: []Column{{"value", 8, "%d", false}, {"epoch ms", 12, "%.4f", false}, {"GFLOPS", 10, "%.0f", false},
			{"gemm%", 10, "%.1f%%", false}, {"elem%", 10, "%.1f%%", false}, {"conv%", 10, "%.1f%%", false}}}
	for _, p := range points {
		f.add(p.Value, 1e3*p.EpochSeconds, p.Report.GFLOPS, 100*p.Report.TimeShare[gpu.OpGEMM],
			100*p.Report.TimeShare[gpu.OpElementWise], 100*p.Report.TimeShare[gpu.OpConv])
	}
	return f
}
