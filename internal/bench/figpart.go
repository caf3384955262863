package bench

import (
	"fmt"
	"slices"

	"gnnmark/internal/core"
	"gnnmark/internal/ddp"
	"gnnmark/internal/graph"
	"gnnmark/internal/partitioned"
	"gnnmark/internal/vmem"
)

// FigPartWorkload holds one workload's executed-DDP vs executed-partitioned
// comparison across world sizes, plus the edge-cut sensitivity sweep.
type FigPartWorkload struct {
	Workload string
	// DDP holds the executed data-parallel strong-scaling series. For
	// full-graph workloads (ARGA) the cluster replicates the dataset — the
	// paper's "DDP cannot be used" case — so its epoch time does not scale.
	DDP []ddp.ClusterResult
	// Part holds the executed graph-partitioned series over the same worlds.
	Part []*partitioned.Result
}

// FigPartCut is one labeling's run in the edge-cut sensitivity sweep.
type FigPartCut struct {
	Labeling string
	*partitioned.Result
}

// FigPartResult is everything the figpart command prints.
type FigPartResult struct {
	Workloads []FigPartWorkload
	// Cuts compares partition labelings at the largest world size for ARGA:
	// BFS grouping (locality-aware) vs a uniform random labeling.
	Cuts      []FigPartCut
	CutWorld  int
	CutEpochs int
}

// FigPart runs the partitioned-execution study: for DGCN (batched graphs,
// DDP-compatible) and ARGA (full-graph, DDP must replicate), train with the
// executed DDP plane and the executed partitioned plane at each world size,
// then sweep the partition labeling to expose the edge-cut sensitivity of
// halo traffic. cfg.GPUs sets the largest world (default 4).
func FigPart(cfg core.RunConfig) (*FigPartResult, error) {
	if cfg.GPUs <= 1 {
		cfg.GPUs = 4
	}
	out := &FigPartResult{}
	for _, key := range []string{"DGCN", "ARGA"} {
		c := cfg
		c.Workload = key
		c.Dataset = ""
		ddpRes, err := core.RunDDP(c)
		if err != nil {
			return nil, fmt.Errorf("figpart: DDP %s: %w", key, err)
		}
		wl := FigPartWorkload{Workload: key, DDP: ddpRes}
		for _, world := range core.ScalingWorlds(cfg.GPUs) {
			pc := c
			pc.GPUs = world
			pc.Overlap = true
			pr, err := core.RunPartitioned(pc)
			if err != nil {
				return nil, fmt.Errorf("figpart: partitioned %s x%d: %w", key, world, err)
			}
			wl.Part = append(wl.Part, pr)
		}
		out.Workloads = append(out.Workloads, wl)
	}

	// Edge-cut sensitivity on the full-graph workload: same training run,
	// different node labeling. Halo traffic tracks the cut directly.
	cutCfg := cfg
	cutCfg.Workload = "ARGA"
	cutCfg.Dataset = ""
	cutCfg.Epochs = 1
	out.CutWorld = cfg.GPUs
	out.CutEpochs = cutCfg.Epochs
	for _, lab := range []struct {
		name string
		fn   func(g *graph.CSR, k int) ([]int32, int)
	}{
		{"bfs", nil}, // nil = graph.PartitionBFS default
		{"random", func(g *graph.CSR, k int) ([]int32, int) {
			return graph.PartitionRandom(g, k, 7)
		}},
	} {
		factory, err := core.PartitionedFactory(cutCfg, lab.fn)
		if err != nil {
			return nil, err
		}
		res, err := partitioned.Train(factory, cfg.GPUs, cutCfg.Epochs,
			partitioned.Config{Overlap: true})
		if err != nil {
			return nil, fmt.Errorf("figpart: %s labeling: %w", lab.name, err)
		}
		out.Cuts = append(out.Cuts, FigPartCut{lab.name, res})
	}
	return out, nil
}

// ddpEpochComm is the per-epoch wire volume one DDP replica pushes around
// the ring: 2(G-1)/G of the gradient payload per iteration.
func ddpEpochComm(r ddp.ClusterResult) uint64 {
	if r.GPUs <= 1 {
		return 0
	}
	ring := 2 * uint64(r.GPUs-1) * r.GradBytesPerIt / uint64(r.GPUs)
	return ring * uint64(r.Iterations)
}

// Figure is the partitioned-execution study: one panel per workload, then
// the edge-cut sweep.
func (res *FigPartResult) Figure() Figure {
	f := Figure{ID: "figpart", Title: "figpart: executed DDP vs executed graph partitioning (overlapped halo exchange)",
		Notes: []string{"", "* = replicated (sampler not DDP-compatible: the paper's full-graph exclusion)"}}
	text := func(head string, width int) Column { return Column{head, width, "%s", false} }
	columns := []Column{{"world", 7, "%d", false}, text("ddp epoch ms", 15), text("ddp comm/ep", 13),
		{"part epoch ms", 15, "%.3f", false}, text("halo/ep", 13), {"edge cut", 10, "%d", false}, {"speedup", 9, "%.2fx", false}}
	for _, wl := range res.Workloads {
		p := Figure{Title: wl.Workload + ":", Columns: columns}
		base := 0.0
		for i, pr := range wl.Part {
			if i == 0 && len(pr.EpochSeconds) > 0 {
				base = pr.EpochSeconds[0]
			}
			ddpMS, ddpComm := Cell{Text: "-"}, "-"
			for _, dr := range wl.DDP {
				if dr.GPUs == pr.GPUs {
					ddpMS = num("%.3f", 1e3*dr.TotalSeconds)
					if dr.Replicated {
						ddpMS.Text += "*"
					}
					ddpComm = vmem.FormatBytes(int64(ddpEpochComm(dr)))
				}
			}
			partEp := pr.TotalSeconds / float64(max(1, pr.Epochs))
			speedup := 0.0
			if partEp > 0 {
				speedup = base / partEp
			}
			p.add(pr.GPUs, ddpMS, ddpComm, 1e3*partEp,
				vmem.FormatBytes(int64(pr.HaloBytes/uint64(max(1, pr.Epochs)))), pr.EdgeCut, speedup)
		}
		// Capacity: partitioning shards the footprint; DDP replicates it.
		if n := len(wl.Part); n > 1 {
			p0, pn := wl.Part[0], wl.Part[n-1]
			if len(p0.PeakBytes) > 0 && len(pn.PeakBytes) > 0 {
				p.Notes = []string{fmt.Sprintf("  peak device memory: %s on 1 GPU -> %s per GPU %d-way partitioned (DDP replicates the full %s)",
					vmem.FormatBytes(p0.PeakBytes[0]), vmem.FormatBytes(slices.Max(pn.PeakBytes)),
					pn.GPUs, vmem.FormatBytes(p0.PeakBytes[0]))}
			}
		}
		f.Panels = append(f.Panels, p)
	}
	if len(res.Cuts) > 0 {
		cuts := Figure{Title: fmt.Sprintf("ARGA edge-cut sensitivity (%d-way, %d epoch):", res.CutWorld, res.CutEpochs),
			Columns: []Column{{Verb: "  %-7s labeling:"}, {Verb: "cut %6d edges,"}, {Verb: "halo %10s,"}, {Verb: "epoch %.3f ms"}}}
		for _, c := range res.Cuts {
			cuts.add(c.Labeling, c.EdgeCut, vmem.FormatBytes(int64(c.HaloBytes)), 1e3*c.TotalSeconds)
		}
		f.Panels = append(f.Panels, cuts)
	}
	return f
}

// PartitionedRunFigure is one executed partitioned training run: the run
// command's -parallelism=partitioned view, a row per GPU.
func PartitionedRunFigure(workload string, res *partitioned.Result) Figure {
	f := Figure{Title: fmt.Sprintf("%s executed partitioned training on %d simulated GPUs", workload, res.GPUs),
		Lead: []string{
			fmt.Sprintf("epoch losses: %v", res.EpochLosses),
			fmt.Sprintf("epoch seconds (simulated): %v", res.EpochSeconds),
			fmt.Sprintf("compute %.3f ms, halo %.3f ms (%.3f exposed, %.3f hidden), grad sync %.3f ms",
				1e3*res.ComputeSeconds, 1e3*res.HaloSeconds,
				1e3*res.ExposedHaloSeconds, 1e3*res.OverlappedHaloSeconds, 1e3*res.GradSyncSeconds),
			fmt.Sprintf("halo traffic %s total (edge cut %d), gradient payload %s per iteration",
				vmem.FormatBytes(int64(res.HaloBytes)), res.EdgeCut, vmem.FormatBytes(int64(res.GradBytesPerIt))),
		},
		Columns: []Column{{Verb: "  gpu%d:"}, {Verb: "%d owned"}, {Verb: "+ %d halo nodes,"}, {Verb: "boundary %.1f%%,"}, {Verb: "peak mem %s"}}}
	for r, info := range res.Infos {
		peak := int64(0)
		if r < len(res.PeakBytes) {
			peak = res.PeakBytes[r]
		}
		f.add(r, info.OwnedNodes, info.HaloNodes, 100*info.BoundaryFraction, vmem.FormatBytes(peak))
	}
	return f
}
