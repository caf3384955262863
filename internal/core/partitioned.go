package core

import (
	"fmt"

	"gnnmark/internal/models"
	"gnnmark/internal/partitioned"
)

// PartitionedWorkloads lists the registry keys the graph-partitioned plane
// supports: the specs with a Partition builder.
func PartitionedWorkloads() []string {
	return keysWhere(func(s Spec) bool { return s.Partition != nil })
}

// PartitionedFactory returns the per-rank builder for cfg's workload under
// the partitioned plane. partition overrides the node labeling (nil uses
// graph.PartitionBFS).
func PartitionedFactory(cfg RunConfig, partition Partitioner) (partitioned.Factory, error) {
	cfg.defaults()
	spec, dataset, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	if spec.Partition == nil {
		return nil, fmt.Errorf("core: workload %s does not support partitioned training (have %v)",
			spec.Key, PartitionedWorkloads())
	}
	// The partitioned plane never pipelines its input: its own two-stream
	// timeline owns the overlap model, so the Env's clock must stay the
	// serialized device clock.
	cfg.PipelineDepth = 0

	// Rank = fleet slot under this plane. Partition workloads are not
	// registry builds, so the factory calls Build itself — as rank 0 of 1:
	// they split the graph by (rank, world) themselves, and the Env must
	// not shard the batches under them as well.
	return func(rank, world int) (w models.PartWorkload, env *models.Env, err error) {
		env, err = cfg.Build(rank, 0, 1, func(env *models.Env) {
			w = spec.Partition(env, dataset, rank, world, partition)
		})
		return w, env, err
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
	return partitioned.Train(factory, max(cfg.GPUs, 1), cfg.Epochs,
		partitioned.Config{Overlap: cfg.Overlap})
}
