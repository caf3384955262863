package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"gnnmark/internal/backend"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/nn"
	"gnnmark/internal/ops"
	"gnnmark/internal/profiler"
)

// Replica is one workload constructed on its own simulated device. Every
// plane builds its registry workloads through NewReplica, so a workload is
// the same object whichever plane trains it; the DNN baseline, outside the
// registry, fills one in from RunConfig.Build to train it through Train.
type Replica struct {
	Spec    Spec
	Dataset string
	W       models.Workload
	Env     *models.Env
	Dev     *gpu.Device
}

// Parallelisms lists the executed multi-device strategies RunConfig.Parallelism
// names; the first is the default ("" reads as it).
func Parallelisms() []string { return []string{"ddp", "partitioned"} }

// Resolve returns c's workload spec and dataset (empty = the spec's
// default), rejecting a dataset the workload does not have, a Model that is
// not the workload's config type, a parallelism that names no strategy, a
// negative count or budget — values a front end would otherwise read as
// "unset" and silently run something else — and a TargetLoss without an
// Epochs cutoff.
func (c *RunConfig) Resolve() (Spec, string, error) {
	spec, err := Lookup(c.Workload)
	if err != nil {
		return Spec{}, "", err
	}
	if c.Parallelism != "" && !slices.Contains(Parallelisms(), c.Parallelism) {
		return Spec{}, "", fmt.Errorf("core: unknown parallelism %q (want %s)", c.Parallelism, strings.Join(Parallelisms(), " or "))
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Epochs", float64(c.Epochs)}, {"GPUs", float64(c.GPUs)}, {"SampledWarps", float64(c.SampledWarps)},
		{"PipelineDepth", float64(c.PipelineDepth)}, {"LoaderWorkers", float64(c.LoaderWorkers)}, {"HBMGB", c.HBMGB},
	} {
		if f.v < 0 {
			return Spec{}, "", fmt.Errorf("core: negative %s %v", f.name, f.v)
		}
	}
	if c.TargetLoss != 0 && c.Epochs == 0 {
		return Spec{}, "", fmt.Errorf("core: TargetLoss %v needs an Epochs cutoff", c.TargetLoss)
	}
	if c.Model != nil && reflect.TypeOf(c.Model) != reflect.TypeOf(spec.config) {
		return Spec{}, "", fmt.Errorf("core: workload %s takes a %T, not a %T", spec.Key, spec.config, c.Model)
	}
	dataset := c.Dataset
	if dataset == "" {
		dataset = spec.Datasets[0]
	}
	if !slices.Contains(spec.Datasets, dataset) {
		return Spec{}, "", fmt.Errorf("core: workload %s has no dataset %q (have %v)",
			spec.Key, dataset, spec.Datasets)
	}
	return spec, dataset, nil
}

// Build is the one guarded build step. It makes the device-attached Env of
// fleet slot `slot`, in this order: device model (DeviceConfig), numerics
// backend, simulated device (OnDevice fires before any kernel launches), op
// engine, seeded Env (seed 0 reads as 1), training mode, input-pipeline
// config — which must be set before a workload is built, because
// constructors create their loaders from it — and rank/world, because
// batches shard at construction time. Then it runs construct on the Env
// under gpu.Guard: the footprint includes preprocessing, so a build can OOM,
// and a device failure raised mid-construction is returned as the error
// with the half-built Env closed, so its loader workers do not outlive it.
// NewReplica and PartitionedFactory call this for registry workloads; the
// DNN baseline, the one model outside the registry, calls it itself. The
// device is env.E.Device().
func (c *RunConfig) Build(slot, rank, world int, construct func(env *models.Env)) (*models.Env, error) {
	devCfg, err := c.DeviceConfig(slot)
	if err != nil {
		return nil, err
	}
	be, err := backend.New(c.Backend, c.Obs)
	if err != nil {
		return nil, err
	}
	dev := gpu.New(devCfg)
	if c.OnDevice != nil {
		c.OnDevice(dev)
	}
	env := models.NewEnv(ops.NewWith(dev, be), cmp.Or(c.Seed, 1))
	env.Training = !c.ForwardOnly
	env.Pipeline = models.PipelineConfig{
		Depth:       c.PipelineDepth,
		Workers:     c.LoaderWorkers,
		CompressH2D: c.CompressH2D,
	}
	env.Rank, env.World = rank, world
	if err := gpu.Guard(func() { construct(env) }); err != nil {
		env.Close()
		return nil, err
	}
	return env, nil
}

// NewReplica constructs replica `rank` of a `world`-replica run of cfg's
// workload on the device model of fleet slot `slot` (single-device callers
// pass 0, 0, 1): resolve the spec and dataset, Build the workload from
// cfg.Model (nil = the suite's config), then enable the stream timeline —
// after construction, so construction kernels stay on the classic
// serialized path.
//
// The replica is NOT rebased: its clock and peak memory still include
// construction. Planes that measure training only call Rebase next.
func NewReplica(cfg RunConfig, slot, rank, world int) (*Replica, error) {
	cfg.defaults()
	spec, dataset, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	rep := &Replica{Spec: spec, Dataset: dataset}
	rep.Env, err = cfg.Build(slot, rank, world, func(env *models.Env) { rep.W = spec.New(env, dataset, cmp.Or(cfg.Model, spec.config)) })
	if err != nil {
		return nil, err
	}
	rep.Dev = rep.Env.E.Device()
	rep.Env.E.EnablePipeline(cfg.PipelineDepth, cfg.CompressH2D)
	return rep, nil
}

// Rebase makes construction invisible to what follows: the device clock
// restarts at zero, the allocator's peaks rebase to the still-live
// construction footprint, and the stream timeline (which keeps a cursor
// into the serialized clock) is re-armed beside the reset clock. The
// single-device planes rebase because they report training time and the
// per-iteration footprint. The DDP cluster resets each replica's clock
// itself and counts construction in its peak memory, and the partitioned
// plane counts construction in PeakBytes and offsets its monitors by the
// construction time instead; neither calls this, and the golden digests
// pin the difference.
func (r *Replica) Rebase() {
	r.Dev.ResetClock()
	r.Dev.Mem().ResetPeak()
	r.Env.E.EnablePipeline(r.Env.Pipeline.Depth, r.Env.Pipeline.CompressH2D)
}

// Train is the one training step of a single-device run: Rebase, attach the
// profiler, train cfg.Epochs epochs — stopping after the first whose loss
// is at or below a nonzero cfg.TargetLoss — and snapshot what the run
// measured. Run calls it on the replica it builds; a study that builds its
// replica another way (the DNN baseline, the serving trainer) calls it too.
func (r *Replica) Train(cfg RunConfig) (RunResult, error) {
	// Construction may launch preprocessing kernels; measure training only.
	// The profiler attaches after construction for the same reason.
	r.Rebase()
	env, dev := r.Env, r.Dev
	prof := profiler.Attach(dev)
	env.OnIteration = prof.NextIteration

	res := RunResult{
		Workload:   r.Spec.Key,
		Dataset:    r.Dataset,
		ParamCount: nn.NumParams(r.W.Params()),
	}
	lastOpCap := env.E.OpClasses()
	// Epoch seconds are differences of the serialized device clock, also
	// under the input pipeline (Pipe carries the overlapped view).
	log, err := env.Train(r.W, cfg.Epochs, dev.ElapsedSeconds, func(_ int, loss, _ float64) (bool, error) {
		if env.E.Obs() != nil {
			opCap := env.E.OpClasses()
			res.HostOpClasses = append(res.HostOpClasses, opCap.Delta(lastOpCap))
			lastOpCap = opCap
		}
		if pe, ok := env.E.EpochPipeStats(); ok {
			res.Pipe = append(res.Pipe, pe)
		}
		return cfg.TargetLoss != 0 && loss <= cfg.TargetLoss, nil
	})
	if err != nil {
		return RunResult{}, err
	}
	res.EpochLog = log
	res.SimSeconds = env.SimClock()
	res.StreamLanes = env.E.StreamLanes()
	res.Report = prof.Snapshot()
	res.SparsityTimeline = prof.SparsityTimeline()
	res.Mem = dev.MemStats()
	res.PerClass = map[gpu.OpClass]profiler.ClassStats{}
	for _, c := range gpu.AllOpClasses() {
		if cs := prof.Class(c); cs.Kernels > 0 {
			res.PerClass[c] = *cs
		}
	}
	return res, nil
}
