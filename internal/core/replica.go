package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"gnnmark/internal/backend"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/ops"
)

// Replica is one workload constructed on its own simulated device. Every
// execution path — single-device runs, DDP and elastic replicas, scenario
// segments, serving replicas, the trace tools — builds it through
// NewReplica, so a workload is the same object whichever plane trains it.
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
// default), rejecting a dataset the workload does not have, a parallelism
// that names no strategy and a negative count or budget — values a front
// end would otherwise read as "unset" and silently run something else.
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
// Callers that build something other than a registry workload
// (hyperparameter sweeps, the DNN baseline, partition workloads, the scaling
// study's large-batch configs) call this; everything else goes through
// NewReplica. The device is env.E.Device().
func (c *RunConfig) Build(slot, rank, world int, construct func(env *models.Env)) (*models.Env, error) {
	devCfg, err := c.DeviceConfig(slot)
	if err != nil {
		return nil, err
	}
	be, err := backend.New(c.Backend)
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
// pass 0, 0, 1): resolve the spec and dataset, Build the workload, then
// enable the stream timeline — after construction, so construction kernels
// stay on the classic serialized path.
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
	rep.Env, err = cfg.Build(slot, rank, world, func(env *models.Env) { rep.W = spec.Build(env, dataset, 1) })
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

// Epoch trains one epoch through the shared epoch step (models.Env.Epoch)
// and drops the engine's dead per-tensor bookkeeping. A simulated OOM or a
// fatal health event during the epoch is returned as the error; the replica
// is then dead and must not be trained further.
func (r *Replica) Epoch() (float64, error) {
	loss, err := r.Env.Epoch(r.W)
	if err == nil {
		r.Env.E.Reset()
	}
	return loss, err
}
