// Package ddp executes PyTorch DistributedDataParallel training of the
// GNNMark workloads on a simulated multi-GPU NVLink node (the paper's
// 4xV100 EC2 instance, §V-E / Figure 9).
//
// Train runs one replica per simulated device, each on its rank's shard of
// every global batch (models.Env.Shard, driven by env.Rank and env.World —
// the only way a batch is split), and averages their gradients through a
// bucketed ring allreduce whose modeled cost per bucket is
//
//	t_comm = 2 (G-1)/G * bytes / BW  +  2 (G-1) * latency  +  hook
//
// overlapped against the remaining backward compute (cluster.go). This
// file holds the interconnect model.
//
// Failure is a returned error throughout: a ReplicaFactory's own, a
// simulated device failure from construction or from a worker's epoch loop
// (gpu.Guard; the exec core names the rank), or the *FleetFailure the
// gradient-barrier leader returns, which RunElastic recovers from. Past
// construction, Train's result carries the epochs the round completed
// whatever the error.
//
// Two pathologies the paper observes are reproduced structurally:
//
//   - PSAGE's batch sampler is DDP-incompatible, so every GPU processes the
//     full batch (no compute reduction) while still paying synchronization:
//     scaling degrades below 1x.
//   - TLSTM is launch-overhead-bound; shrinking its shard barely reduces
//     per-epoch time, so extra GPUs buy nothing.
package ddp

// The interconnect and framework overhead of the 4xV100 NVLink node (6
// links, 300 GB/s aggregate; allreduce achieves roughly half of peak in
// practice). The partitioned plane's halo copies and gradient sync read the
// same three.
const (
	// NVLinkBandwidthGBps is the effective per-GPU allreduce bandwidth.
	NVLinkBandwidthGBps float64 = 150
	// NVLinkLatencyUS is the per-hop message latency in microseconds.
	NVLinkLatencyUS float64 = 1.9
	// HookOverheadUS is the per-iteration DDP bookkeeping cost (bucket
	// assembly, reducer dispatch) in microseconds.
	HookOverheadUS float64 = 30
)

// AllreduceSeconds returns the modeled per-iteration ring-allreduce cost
// for a gradient payload: 2(G-1)/G bandwidth terms, 2(G-1) hop latencies,
// plus the reducer hook overhead. Exported so other execution strategies
// (the partitioned plane's gradient synchronization) share one comm model.
func AllreduceSeconds(gpus int, gradBytes uint64) float64 {
	if gpus <= 1 {
		return 0
	}
	g := float64(gpus)
	bw := NVLinkBandwidthGBps * 1e9
	transfer := 2 * (g - 1) / g * float64(gradBytes) / bw
	latency := 2 * (g - 1) * NVLinkLatencyUS * 1e-6
	hook := HookOverheadUS * 1e-6
	return transfer + latency + hook
}
