package core

import (
	"cmp"
	"fmt"

	"gnnmark/internal/models"
	"gnnmark/internal/partitioned"
)

// PartitionedWorkloads lists the registry keys the graph-partitioned plane
// supports.
func PartitionedWorkloads() []string {
	return keysWhere(func(s Spec) bool { return s.Partitioned })
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
	if !spec.Partitioned {
		return nil, fmt.Errorf("core: workload %s does not support partitioned training (have %v)",
			spec.Key, PartitionedWorkloads())
	}
	// The partitioned plane never pipelines its input: its own two-stream
	// timeline owns the overlap model, so the Env's clock must stay the
	// serialized device clock.
	cfg.PipelineDepth = 0

	// Rank = fleet slot under this plane. The workload is NewReplica's
	// build, made as rank 0 of 1 — models.Partition splits its graphs by
	// (rank, world), and the Env must not shard the batches under it as well.
	return func(rank, world int) (w models.PartWorkload, env *models.Env, err error) {
		var perr error
		env, err = cfg.Build(rank, 0, 1, func(env *models.Env) {
			w, perr = models.Partition(spec.New(env, dataset, cmp.Or(cfg.Model, spec.config)), env, rank, world, partition)
		})
		return w, env, cmp.Or(err, perr)
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
