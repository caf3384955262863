// Command gnnmark-trace prints a per-kernel-name time breakdown for one
// workload's training epoch: the tool used to calibrate the kernel recipes
// against the paper's figures, kept for model debugging.
//
// With -gpus N (N > 1) it instead runs the executed graph-partitioned plane
// (ARGA or DGCN) and writes a chrome://tracing timeline in which every
// simulated GPU's compute and halo-exchange streams appear as their own
// named threads, so exposed communication is visible as compute-lane gaps.
//
// Usage:
//
//	gnnmark-trace <PSAGE|STGCN|DGCN|GW|KGNNL|KGNNH|ARGA|TLSTM>
//	gnnmark-trace -gpus 4 -out halo.json [-overlap=false] <ARGA|DGCN>
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
	"gnnmark/internal/trace"
)

func main() {
	gpus := flag.Int("gpus", 1, "simulated GPU count; >1 runs the partitioned plane and writes a halo-lane trace")
	out := flag.String("out", "partitioned-trace.json", "trace output path (partitioned mode)")
	overlap := flag.Bool("overlap", true, "overlap halo exchange with interior compute (partitioned mode)")
	epochs := flag.Int("epochs", 1, "training epochs (partitioned mode)")
	warps := flag.Int("warps", 2048, "max sampled warps per kernel")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: gnnmark-trace [-gpus N -out FILE] <PSAGE|STGCN|DGCN|GW|KGNNL|KGNNH|ARGA|TLSTM>")
		os.Exit(2)
	}
	key := flag.Arg(0)
	if *gpus > 1 {
		partitionedTrace(key, *gpus, *epochs, *warps, *seed, *overlap, *out)
		return
	}
	kernelBreakdown(key, *warps, *seed)
}

// partitionedTrace trains the workload on the executed partitioned plane and
// writes every rank's stream lanes as named threads of the device process.
func partitionedTrace(key string, gpus, epochs, warps int, seed int64, overlap bool, out string) {
	res, err := core.RunPartitioned(core.RunConfig{
		Workload: key, GPUs: gpus, Epochs: epochs,
		SampledWarps: warps, Seed: seed, Overlap: overlap,
	})
	fail(err)
	lanes := trace.RankLanes(res.Lanes)
	f, err := os.Create(out)
	fail(err)
	defer f.Close()
	events := trace.StreamLaneEvents(lanes)
	fail(trace.WriteEvents(f, events))
	fmt.Printf("%s x%d partitioned: wrote %d lane events (%d lanes) to %s (open in chrome://tracing)\n",
		key, gpus, len(events), len(lanes), out)
	fmt.Printf("epoch seconds %v, halo exposed %.3f ms / hidden %.3f ms\n",
		res.EpochSeconds, 1e3*res.ExposedHaloSeconds, 1e3*res.OverlappedHaloSeconds)
}

// kernelBreakdown is the classic single-device calibration mode.
func kernelBreakdown(key string, warps int, seed int64) {
	rep, err := core.NewReplica(core.RunConfig{Workload: key, SampledWarps: warps, Seed: seed}, 0, 0, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnnmark-trace:", err)
		os.Exit(2)
	}
	defer rep.Env.Close()
	// Subscribing after construction leaves its kernels out: the breakdown
	// is one training epoch.
	times := map[string]float64{}
	counts := map[string]int{}
	rep.Dev.Subscribe(func(ks gpu.KernelStats) {
		k := fmt.Sprintf("%-12s %s", ks.Class, ks.Name)
		times[k] += ks.Seconds
		counts[k]++
	})
	_, err = rep.Epoch()
	fail(err)

	type kv struct {
		k string
		v float64
	}
	var list []kv
	var tot float64
	for k, v := range times {
		list = append(list, kv{k, v})
		tot += v
	}
	sort.Slice(list, func(i, j int) bool { return list[i].v > list[j].v })
	for _, e := range list {
		fmt.Printf("%7.2f%% %9.1fus n=%-5d %s\n", 100*e.v/tot, 1e6*e.v, counts[e.k], e.k)
	}
}

// fail reports err, if any, and exits 1.
func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnnmark-trace:", err)
		os.Exit(1)
	}
}
