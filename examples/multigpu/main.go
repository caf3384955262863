// Multi-GPU strong-scaling study (the paper's Figure 9) from the public
// API: execute PyTorch-DDP training of two contrasting workloads on a
// simulated 4xV100 NVLink node — one replica per GPU, each on its shard of
// the global batch, gradients averaged through a bucketed ring allreduce.
// ddp.ExecutedStrongScaling runs ddp.Train at each world size; it is the
// engine `gnnmark fig9` uses.
//
//	go run ./examples/multigpu
package main

import (
	"fmt"
	"os"

	"gnnmark/internal/datasets"
	"gnnmark/internal/ddp"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/ops"
)

// factory builds replica `rank` of `world`: a fresh device, engine and
// workload from the same seed at every rank. Setting env.Rank and
// env.World before construction is what shards the batches. The first
// parameter is the replica's fleet slot, for fleets that mix device models;
// this node is four identical V100s. A factory reports failure by returning
// an error; a simulated OOM during construction needs no handling here —
// ddp.Train builds replicas under gpu.Guard and returns it as an error.
func factory(workload string) ddp.ReplicaFactory {
	return func(_, rank, world int) (models.Workload, *models.Env, error) {
		env := models.NewEnv(ops.New(gpu.New(gpu.V100())), 3)
		env.Rank, env.World = rank, world
		switch workload {
		case "STGCN":
			return models.NewSTGCN(env, datasets.METRLA(env.RNG), models.STGCNConfig{
				Channels: 32, BatchSize: 48, Batches: 1,
			}), env, nil
		case "PSAGE":
			return models.NewPSAGE(env, datasets.MovieLens(env.RNG), models.PSAGEConfig{
				BatchSize: 64, Batches: 2,
			}), env, nil
		}
		return nil, nil, fmt.Errorf("unknown workload %q", workload)
	}
}

func main() {
	fmt.Printf("interconnect: %.0f GB/s effective allreduce, %.1f us latency\n\n",
		ddp.NVLinkBandwidthGBps, ddp.NVLinkLatencyUS)

	for _, w := range []string{"STGCN", "PSAGE"} {
		res, err := ddp.ExecutedStrongScaling(factory(w), []int{1, 2, 4})
		if err != nil {
			fmt.Fprintln(os.Stderr, "multigpu:", err)
			os.Exit(1)
		}
		fmt.Printf("%s strong scaling:\n", w)
		for _, r := range res {
			note := ""
			if r.Replicated {
				note = "  [data replicated: sampler is not DDP-compatible]"
			}
			fmt.Printf("  %d GPU: epoch %.3f ms = compute %.3f + exposed comm %.3f (%.3f hidden under backward) -> speedup %.2fx%s\n",
				r.GPUs, 1e3*r.TotalSeconds, 1e3*r.ComputeSeconds, 1e3*r.ExposedCommSeconds,
				1e3*r.OverlappedCommSeconds, r.Speedup, note)
		}
		fmt.Println()
	}
	fmt.Println("STGCN shards its batch and gains; PSAGE's sampler cannot shard,")
	fmt.Println("so replicas do redundant work and extra GPUs only add cost —")
	fmt.Println("the two extremes of the paper's Figure 9.")
}
