// Package core is the public surface of the GNNMark suite reproduction: a
// registry of the eight workloads with their datasets (paper Table I) and a
// characterization runner that wires a simulated V100, the profiler, and a
// workload together and returns every metric the paper's figures report.
package core

import (
	"fmt"
	"sort"

	"gnnmark/internal/datasets"
	"gnnmark/internal/ddp"
	"gnnmark/internal/gpu"
	"gnnmark/internal/graph"
	"gnnmark/internal/models"
	"gnnmark/internal/obs"
	"gnnmark/internal/ops"
	"gnnmark/internal/profiler"
	"gnnmark/internal/stream"
	"gnnmark/internal/vmem"
)

// Spec is one Table I row: a workload, its provenance, and its datasets.
type Spec struct {
	// Key is the paper's mnemonic (PSAGE, STGCN, DGCN, GW, KGNNL, KGNNH,
	// ARGA, TLSTM).
	Key string
	// Model is the full model name.
	Model string
	// Framework is the GNN framework the paper's implementation uses.
	Framework string
	// Domain is the application domain.
	Domain string
	// Datasets lists usable dataset keys; the first is the default.
	Datasets []string
	// New constructs the workload on the given dataset from its model's
	// config struct (models.PSAGEConfig for PSAGE, models.KGNNConfig for both
	// k-GNNs, and so on; zero fields take the model's defaults): the one
	// constructor behind every replica, handed RunConfig.Model or, when that
	// is nil, the suite's config (Build). Resolve rejects another model's.
	New func(env *models.Env, dataset string, cfg any) models.Workload
	// config is what Build hands New: the suite's setting of the model.
	config any
	// Servable records that Build's workload implements models.Servable, so
	// a front end can say so before building one (scenario.TestServableSet
	// holds it to the live type assertion).
	Servable bool
	// Partitioned records that models.Partition accepts Build's workload, so
	// the graph-partitioned plane trains it. The suite's full-graph (ARGA)
	// and batched-graph (DGCN) GCN workloads have a partitioned form, the two
	// the paper's multi-GPU discussion singles out.
	Partitioned bool
}

// Partitioner labels a graph's nodes with k part ids and returns the edge
// cut; it must be deterministic, because every rank runs it.
type Partitioner = func(g *graph.CSR, k int) ([]int32, int)

// registry holds the suite in paper order.
var registry = []Spec{
	{
		Key: "PSAGE", Model: "PinSAGE", Framework: "DGL",
		Domain:   "Recommendation systems",
		Datasets: []string{"MVL", "NWP"}, Servable: true, config: models.PSAGEConfig{},
		New: func(env *models.Env, dataset string, cfg any) models.Workload {
			gen := datasets.MovieLens
			if dataset == "NWP" {
				gen = datasets.NowPlaying
			}
			return models.NewPSAGE(env, gen(env.RNG), cfg.(models.PSAGEConfig))
		},
	},
	{
		Key: "STGCN", Model: "Spatio-Temporal GCN", Framework: "PyTorch",
		Domain:   "Traffic forecasting",
		Datasets: []string{"METR-LA"}, config: models.STGCNConfig{},
		New: func(env *models.Env, dataset string, cfg any) models.Workload {
			return models.NewSTGCN(env, datasets.METRLA(env.RNG), cfg.(models.STGCNConfig))
		},
	},
	{
		Key: "DGCN", Model: "DeepGCN", Framework: "PyG",
		Domain:   "Molecular property prediction",
		Datasets: []string{"ogbg-molhiv"}, Partitioned: true, config: models.DGCNConfig{},
		New: func(env *models.Env, dataset string, cfg any) models.Workload {
			return models.NewDGCN(env, datasets.MolHIV(env.RNG), cfg.(models.DGCNConfig))
		},
	},
	{
		Key: "GW", Model: "GraphWriter", Framework: "PyTorch",
		Domain:   "Text generation from knowledge graphs",
		Datasets: []string{"AGENDA"}, config: models.GWConfig{},
		New: func(env *models.Env, dataset string, cfg any) models.Workload {
			return models.NewGW(env, datasets.AGENDA(env.RNG), cfg.(models.GWConfig))
		},
	},
	{
		Key: "KGNNL", Model: "k-GNN (1-2-GNN)", Framework: "PyG",
		Domain:   "Protein classification",
		Datasets: []string{"PROTEINS"}, config: models.KGNNConfig{K: 2},
		New: func(env *models.Env, dataset string, cfg any) models.Workload {
			return models.NewKGNN(env, datasets.Proteins(env.RNG), cfg.(models.KGNNConfig))
		},
	},
	{
		Key: "KGNNH", Model: "k-GNN (1-2-3-GNN)", Framework: "PyG",
		Domain:   "Protein classification",
		Datasets: []string{"PROTEINS"}, config: models.KGNNConfig{K: 3},
		New: func(env *models.Env, dataset string, cfg any) models.Workload {
			return models.NewKGNN(env, datasets.Proteins(env.RNG), cfg.(models.KGNNConfig))
		},
	},
	{
		Key: "ARGA", Model: "Adversarially Regularized Graph Autoencoder", Framework: "PyG",
		Domain:   "Node clustering / graph embedding",
		Datasets: []string{"cora", "citeseer", "pubmed"}, Servable: true, Partitioned: true, config: models.ARGAConfig{},
		New: func(env *models.Env, dataset string, cfg any) models.Workload {
			return models.NewARGA(env, datasets.NewCitation(env.RNG, dataset), cfg.(models.ARGAConfig))
		},
	},
	{
		Key: "TLSTM", Model: "Child-Sum Tree-LSTM", Framework: "DGL",
		Domain:   "Sentiment classification",
		Datasets: []string{"SST"}, config: models.TLSTMConfig{},
		New: func(env *models.Env, dataset string, cfg any) models.Workload {
			return models.NewTLSTM(env, datasets.SST(env.RNG), cfg.(models.TLSTMConfig))
		},
	},
}

// Build constructs the workload at the suite's configuration. The third
// parameter is unused (it was the analytical DDP estimator's batch divisor;
// batches shard through env.Rank/env.World and Env.Shard); it stays in the
// signature only because e2ebench/ calls Build(env, ds, 1).
func (s Spec) Build(env *models.Env, dataset string, _ int) models.Workload {
	return s.New(env, dataset, s.config)
}

// Registry returns the suite specs in paper order. The returned slice is a
// copy; mutating it does not affect the registry.
func Registry() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// Lookup returns the spec with the given key.
func Lookup(key string) (Spec, error) {
	for _, s := range registry {
		if s.Key == key {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("core: unknown workload %q (have %v)", key, keysWhere(func(Spec) bool { return true }))
}

// keysWhere lists, sorted, the registry keys whose spec satisfies has: the
// capability lists error messages and front ends print.
func keysWhere(has func(Spec) bool) []string {
	var keys []string
	for _, s := range registry {
		if has(s) {
			keys = append(keys, s.Key)
		}
	}
	sort.Strings(keys)
	return keys
}

// ServableWorkloads lists the registry keys whose workloads serve embeddings.
func ServableWorkloads() []string {
	return keysWhere(func(s Spec) bool { return s.Servable })
}

// RunConfig configures one characterization run.
type RunConfig struct {
	// Workload is the registry key; Dataset one of its datasets (empty =
	// default).
	Workload string
	Dataset  string
	// Epochs is the number of training epochs (default 3; a run with a
	// TargetLoss has no default: Epochs is its cutoff).
	Epochs int
	// TargetLoss, when nonzero, stops a single-device run after the first
	// epoch whose loss is at or below it: the time-to-train rule.
	TargetLoss float64
	// Model is the config Spec.New builds the workload from: the model's
	// own config struct (models.DGCNConfig for DGCN, ...), nil for the
	// suite's. Resolve rejects another model's config.
	Model any
	// Seed drives all randomness (default 1).
	Seed int64
	// SampledWarps overrides the device's cache-replay budget (default
	// 4096; lower = faster, coarser).
	SampledWarps int
	// HalfPrecision enables the fp16 storage mode (paper future work).
	HalfPrecision bool
	// ForwardOnly characterizes inference instead of training: iterations
	// run the forward pass only, with no backward kernels or optimizer
	// steps (the paper's future-work inference-study mode).
	ForwardOnly bool
	// BypassL1 disables the L1 data cache (all accesses served by L2): the
	// paper's suggested mitigation for the very low L1 hit rates.
	BypassL1 bool
	// GPU selects the device preset: "v100" (default, the paper's GPU),
	// "p100", or "a100" for cross-generation sensitivity studies.
	GPU string
	// GPUs selects executed multi-GPU DDP training (RunDDP): the number of
	// simulated devices, each training a replica on its batch shard with
	// bucketed ring-allreduce gradient averaging. 0 or 1 = single device.
	GPUs int
	// Parallelism selects the executed multi-GPU strategy for GPUs > 1: one
	// of Parallelisms(), empty reading as the first (RunDDP's replicated
	// model and sharded batches). The graph-partitioned plane
	// (RunPartitioned, one graph part per GPU with halo exchange) trains only
	// PartitionedWorkloads().
	Parallelism string
	// Overlap enables the boundary-first overlapped halo exchange under
	// the partitioned plane (ignored by DDP).
	Overlap bool
	// HBMGB overrides the simulated device-memory budget in GiB (0 = the
	// GPU preset's capacity, 16 GiB on the V100). Runs whose footprint
	// exceeds the budget return a *vmem.OOMError naming the failing kernel
	// and the top live allocations.
	HBMGB float64
	// Devices, when non-empty, pins an explicit device model per fleet
	// slot, overriding GPU/HBMGB: slot i (= rank under DDP/partitioned,
	// the only device when GPUs <= 1) runs on Devices[i]. The scenario
	// plane uses this to declare heterogeneous fleets (mixed V100/A100/
	// H100 nodes); SampledWarps/HalfPrecision/BypassL1 still apply on top.
	// Device models shape timing only — numerics are identical across
	// presets — so mixed fleets keep every equivalence guarantee.
	Devices []gpu.Config
	// Backend selects the CPU numerics backend: "serial" (default) or
	// "parallel". Both produce bitwise-identical results; parallel tiles
	// large kernels across a worker pool to speed up simulation wall-clock.
	Backend string
	// PipelineDepth enables the asynchronous input pipeline: input batches
	// are staged ahead by loader workers and their H2D copies run on a
	// dedicated copy-engine stream, overlapped with compute up to this many
	// iterations ahead. 0 = synchronous (the baseline). Numerics are
	// bitwise-identical either way; only the overlapped timeline differs.
	PipelineDepth int
	// LoaderWorkers is the loader worker-goroutine count (0 = default).
	LoaderWorkers int
	// CompressH2D times the copy engine on sparsity-encoded H2D bytes
	// (zero-run / bitmap codec) instead of raw; requires PipelineDepth > 0.
	CompressH2D bool
	// OnDevice, when non-nil, is invoked with each simulated device right
	// after construction — the hook the CLI attaches a trace.Recorder and
	// the kernels study its listener through, before any kernels launch.
	OnDevice func(*gpu.Device)
	// Obs is the run every plane built from this configuration records its
	// host metrics and spans into (DESIGN.md §7); nil records nothing.
	Obs *obs.Run
}

func (c *RunConfig) defaults() {
	if c.Epochs == 0 && c.TargetLoss == 0 {
		c.Epochs = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SampledWarps == 0 {
		c.SampledWarps = 4096
	}
}

// RunResult is the outcome of one characterization run.
type RunResult struct {
	Workload string
	Dataset  string
	Report   profiler.Report
	// SparsityTimeline is the per-iteration H2D zero fraction (Figure 8).
	SparsityTimeline []float64
	// EpochLog holds the per-epoch losses, simulated seconds (of the
	// serialized device clock) and host phases.
	models.EpochLog
	// SimSeconds is the simulated training time: the engine's clock (the
	// overlapped makespan under the input pipeline) after the last epoch.
	SimSeconds float64
	// ParamCount is the model's trainable parameter count.
	ParamCount int
	// PerClass carries the per-op-class stats for Figures 5/6 per-op views.
	PerClass map[gpu.OpClass]profiler.ClassStats
	// HostOpClasses is the per-epoch host-time attribution by gpu.OpClass
	// (the engine's per-op interval accounting); empty unless the run
	// records into RunConfig.Obs. Index-aligned with HostPhases.
	HostOpClasses []ops.OpClassBreakdown
	// Mem snapshots the device allocator after training: peak-live is the
	// per-iteration footprint high-water mark (the memory figure's input).
	Mem vmem.Stats
	// Pipe is the per-epoch pipeline accounting (sync vs overlapped epoch
	// time, per-stream busy time, raw vs encoded H2D bytes); empty unless
	// PipelineDepth > 0.
	Pipe []ops.PipeEpoch
	// StreamLanes snapshots the per-stream busy/idle accounting and trace
	// slices at the end of the run; nil unless PipelineDepth > 0.
	StreamLanes []stream.Lane
}

// Run executes one characterization run: build the replica and Train it.
// A workload whose footprint exceeds the device-memory budget returns a
// *vmem.OOMError (the simulated-OOM report).
func Run(cfg RunConfig) (RunResult, error) {
	cfg.defaults()
	rep, err := NewReplica(cfg, 0, 0, 1)
	if err != nil {
		return RunResult{}, err
	}
	defer rep.Env.Close()
	return rep.Train(cfg)
}

// DeviceConfig resolves the device model for one fleet slot: the explicit
// per-slot override when Devices is set, otherwise the GPU preset with the
// shared HBMGB budget applied. The fidelity knobs (SampledWarps,
// HalfPrecision, BypassL1) apply on top either way.
func (c *RunConfig) DeviceConfig(slot int) (gpu.Config, error) {
	var devCfg gpu.Config
	if len(c.Devices) > 0 {
		if slot < 0 || slot >= len(c.Devices) {
			return gpu.Config{}, fmt.Errorf("core: fleet slot %d outside the %d declared devices",
				slot, len(c.Devices))
		}
		devCfg = c.Devices[slot]
	} else {
		var err error
		devCfg, err = gpu.Preset(c.GPU)
		if err != nil {
			return gpu.Config{}, err
		}
		if c.HBMGB > 0 {
			devCfg.HBMBytes = int64(c.HBMGB * (1 << 30))
		}
	}
	if c.SampledWarps > 0 {
		devCfg.MaxSampledWarps = c.SampledWarps
	}
	devCfg.HalfPrecision = c.HalfPrecision
	devCfg.BypassL1 = c.BypassL1
	devCfg.Obs = c.Obs
	return devCfg, nil
}

// DDPFactory returns the replica builder for cfg's workload — the factory
// RunDDP, the elastic fault harness (ddp.RunElastic), the scenario plane and
// the goodput-under-churn study all share: NewReplica on the device model of
// fleet slot `slot`. Replicas are not rebased: the cluster resets each
// device clock itself and counts construction in its peak memory.
func DDPFactory(cfg RunConfig) ddp.ReplicaFactory {
	cfg.defaults()
	return func(slot, rank, world int) (models.Workload, *models.Env, error) {
		rep, err := NewReplica(cfg, slot, rank, world)
		if err != nil {
			return nil, nil, err
		}
		return rep.W, rep.Env, nil
	}
}

// ScalingWorlds returns the world sizes a strong-scaling series runs at:
// 1, 2, 4, ... below maxGPUs, then maxGPUs itself.
func ScalingWorlds(maxGPUs int) []int {
	worlds := []int{1}
	for g := 2; g < maxGPUs; g *= 2 {
		worlds = append(worlds, g)
	}
	if maxGPUs > 1 {
		worlds = append(worlds, maxGPUs)
	}
	return worlds
}

// RunDDP trains cfg.Workload with the executed DDP engine at every
// ScalingWorlds(cfg.GPUs) size and returns the per-world-size timeline with
// speedups against the 1-GPU run.
func RunDDP(cfg RunConfig) ([]ddp.ClusterResult, error) {
	return ddp.ExecutedStrongScaling(DDPFactory(cfg), ScalingWorlds(cfg.GPUs))
}

// SuiteRun pairs a workload key with a dataset for suite-wide sweeps.
type SuiteRun struct {
	Workload string
	Dataset  string
}

// DefaultSuite returns the workload/dataset pairs the paper's figures sweep
// over: every workload on its default dataset, plus PSAGE on NWP (the
// dataset-dependence contrast of Figures 2 and 7).
func DefaultSuite() []SuiteRun {
	var out []SuiteRun
	for _, s := range registry {
		out = append(out, SuiteRun{Workload: s.Key, Dataset: s.Datasets[0]})
		if s.Key == "PSAGE" {
			out = append(out, SuiteRun{Workload: s.Key, Dataset: "NWP"})
		}
	}
	return out
}

// RunSuite characterizes every workload in the suite with shared settings.
func RunSuite(cfg RunConfig) ([]RunResult, error) {
	var out []RunResult
	for _, sr := range DefaultSuite() {
		c := cfg
		c.Workload = sr.Workload
		c.Dataset = sr.Dataset
		r, err := Run(c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Label returns the display label of a suite run: "PSAGE(MVL)" when the
// workload has multiple datasets, otherwise just the key.
func (sr SuiteRun) Label() string {
	spec, err := Lookup(sr.Workload)
	if err == nil && len(spec.Datasets) > 1 {
		return fmt.Sprintf("%s(%s)", sr.Workload, sr.Dataset)
	}
	return sr.Workload
}

// Label returns the display label of the run (SuiteRun.Label).
func (r RunResult) Label() string { return SuiteRun{r.Workload, r.Dataset}.Label() }
