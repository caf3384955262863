package core

import (
	"fmt"
	"slices"

	"gnnmark/internal/datasets"
	"gnnmark/internal/ddp"
	"gnnmark/internal/graph"
	"gnnmark/internal/models"
	"gnnmark/internal/partitioned"
)

// PartitionedWorkloads lists the registry keys the graph-partitioned plane
// supports: the suite's full-graph (ARGA) and batched-graph (DGCN) GCN
// workloads, the two the paper's multi-GPU discussion singles out.
func PartitionedWorkloads() []string { return []string{"ARGA", "DGCN"} }

// PartitionedFactory returns the per-rank builder for cfg's workload under
// the partitioned plane. partition overrides the node labeling (nil uses
// graph.PartitionBFS); it must be deterministic — every rank runs it.
func PartitionedFactory(cfg RunConfig, partition func(g *graph.CSR, k int) ([]int32, int)) (partitioned.Factory, error) {
	cfg.defaults()
	spec, dataset, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if !slices.Contains(PartitionedWorkloads(), spec.Key) {
		return nil, fmt.Errorf("core: workload %s does not support partitioned training (have %v)",
			spec.Key, PartitionedWorkloads())
	}
	// The partitioned plane never pipelines its input: its own two-stream
	// timeline owns the overlap model, so the Env's clock must stay the
	// serialized device clock.
	cfg.PipelineDepth = 0

	// Rank = fleet slot under this plane. Partition workloads are not
	// registry builds, so the factory starts from NewEnv; partitioned.Train
	// guards the construction kernels.
	return func(rank, world int) (models.PartWorkload, *models.Env, error) {
		env, err := cfg.NewEnv(rank)
		if err != nil {
			return nil, nil, err
		}
		if spec.Key == "ARGA" {
			return models.NewPartitionedARGA(env, datasets.NewCitation(env.RNG, dataset), models.ARGAConfig{}, rank, world, partition), env, nil
		}
		return models.NewPartitionedDGCN(env, datasets.MolHIV(env.RNG), models.DGCNConfig{}, rank, world, partition), env, nil
	}, nil
}

// RunPartitioned trains cfg.Workload with the executed graph-partitioned
// engine across cfg.GPUs simulated devices. cfg.Overlap selects the
// boundary-first overlapped halo exchange.
func RunPartitioned(cfg RunConfig) (*partitioned.Result, error) {
	cfg.defaults()
	factory, err := PartitionedFactory(cfg, nil)
	if err != nil {
		return nil, err
	}
	world := cfg.GPUs
	if world < 1 {
		world = 1
	}
	return partitioned.Train(factory, world, cfg.Epochs,
		partitioned.Config{Comm: ddp.DefaultComm(), Overlap: cfg.Overlap})
}
