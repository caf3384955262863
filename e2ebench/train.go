package main

import (
	"fmt"
	"time"

	"gnnmark/internal/backend"
	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/obs"
	"gnnmark/internal/ops"
	"gnnmark/internal/profiler"
	"gnnmark/internal/tensor"
)

// The two training workloads run the `gnnmark run` defaults: serial backend,
// a V100, 4096 sampled warps, one epoch per model per pass.
const (
	trainPreset = "v100"
	trainWarps  = 4096
	// driftEpochs is how many epochs GW trains in the traced pass, to
	// report how its epoch cost drifts (README.md, "GW subnormal drift").
	driftEpochs = 3
)

// suiteRun is one model of a training pass.
type suiteRun struct{ key, dataset string }

func (s suiteRun) label() string {
	if s.key == "PSAGE" {
		return s.key + "_" + s.dataset
	}
	return s.key
}

// denseRuns: the numerics backend does the work here (convolutions in STGCN,
// GEMM in GW, GEMM and element-wise in ARGA), so a dense-kernel change must
// show here and a device-model change must not.
func denseRuns(o options) []suiteRun {
	if o.smoke {
		return []suiteRun{{"KGNNL", "PROTEINS"}}
	}
	return []suiteRun{{"STGCN", "METR-LA"}, {"GW", "AGENDA"}, {"ARGA", "cora"}}
}

// smallRuns: thousands of tiny kernels, so kernel lowering and the device
// model are about half the pass and GEMM only a fifth. Together with
// denseRuns it covers the nine runs of core.DefaultSuite().
func smallRuns(o options) []suiteRun {
	if o.smoke {
		return []suiteRun{{"KGNNL", "PROTEINS"}}
	}
	return []suiteRun{
		{"DGCN", "ogbg-molhiv"}, {"TLSTM", "SST"}, {"PSAGE", "MVL"}, {"PSAGE", "NWP"},
		{"KGNNL", "PROTEINS"}, {"KGNNH", "PROTEINS"},
	}
}

// modelOut is one model's part of a pass.
type modelOut struct {
	run         suiteRun
	setup, wall time.Duration
	losses      []float64
	epochSim    []float64
	epochWall   []time.Duration
	dev         deviceTotals // kernels are counted after the first epoch
	phases      obs.PhaseBreakdown
	opclass     ops.OpClassBreakdown
	// subnormal is the share of subnormal GEMM operands per epoch (pass T).
	subnormal []float64
}

// runModel builds one model from the seed and trains it, the way core.Run
// composes device, profiler, engine and workload. Only the first epoch
// counts into wall; further epochs (GW's drift) are kept in epochWall, and
// zero epochs is set-up alone. With device it attaches a V100 and the
// profiler as `gnnmark run` does; without, the engine has no device
// (ops.NewWith(nil, be)). timed, when non-nil, wraps be.
func runModel(run suiteRun, seed int64, device bool, be backend.Backend, timed *timedBackend, epochs int) (modelOut, error) {
	out := modelOut{run: run}
	var tr *tracer
	if timed != nil {
		be, tr = timed, timed.tr
		timed.paused = false
	}
	spec, err := core.Lookup(run.key)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	var dev *gpu.Device
	var prof *profiler.Profiler
	if device {
		cfg, err := gpu.Preset(trainPreset)
		if err != nil {
			return out, err
		}
		cfg.MaxSampledWarps = trainWarps
		dev = gpu.New(cfg)
		prof = profiler.Attach(dev)
		out.dev.countH2D(dev)
	}
	env := models.NewEnv(ops.NewWith(dev, be), seed)
	defer env.Close()
	if prof != nil {
		env.OnIteration = prof.NextIteration
	}
	id := tr.begin("models", "build "+run.label())
	w := spec.Build(env, run.dataset, 1)
	tr.end(id)
	// Construction may launch preprocessing kernels; measure training only.
	out.dev.h2dBytes = 0
	if dev != nil {
		prof.Reset()
		dev.ResetClock()
		dev.Mem().ResetPeak()
	}
	if obs.Enabled() {
		obs.Reset()
	}
	out.setup = time.Since(t0)

	ph0, oc0 := obs.CapturePhases(), ops.CaptureOpClasses()
	var sub0, elems0 int64
	if timed != nil {
		sub0, elems0 = timed.gemmSubnormal, timed.gemmElems
	}
	for ep := 0; ep < epochs; ep++ {
		id = tr.begin("models", fmt.Sprintf("epoch %d %s", ep+1, run.label()))
		e0 := time.Now()
		scope := env.E.Track().Begin("epoch", obs.CatPhase)
		out.losses = append(out.losses, w.TrainEpoch())
		env.FinishPhase()
		scope.End()
		if prof != nil {
			prof.MarkEpoch()
		}
		env.E.Reset()
		out.epochWall = append(out.epochWall, time.Since(e0))
		tr.end(id)
		if ep == 0 {
			out.phases = ph0.Delta(obs.CapturePhases())
			out.opclass = ops.CaptureOpClasses().Delta(oc0)
			if dev != nil {
				out.dev.addDevice(dev)
			}
		}
		if timed != nil {
			timed.paused = true
			out.subnormal = append(out.subnormal, ratio(float64(timed.gemmSubnormal-sub0), float64(timed.gemmElems-elems0)))
			sub0, elems0 = timed.gemmSubnormal, timed.gemmElems
		}
	}
	if epochs > 0 {
		out.wall = out.epochWall[0]
	}
	if dev != nil {
		out.epochSim = prof.EpochSeconds()
	}
	return out, nil
}

// trainPass is one pass over the work list in one mode.
type trainPass struct {
	models []modelOut
	passOut
}

func runTrainPass(runs []suiteRun, seed int64, device bool, be backend.Backend, timed *timedBackend) (trainPass, error) {
	var p trainPass
	var d digester
	for _, run := range runs {
		epochs := 1
		if timed != nil && run.key == "GW" {
			epochs = driftEpochs
		}
		m, err := runModel(run, seed, device, be, timed, epochs)
		if err != nil {
			return p, err
		}
		p.models = append(p.models, m)
		p.setup += m.setup
		p.wall += m.wall
		d.str(run.label())
		d.floats("loss", m.losses[:1])
		if len(m.epochSim) > 0 {
			p.sim += m.epochSim[0]
			d.floats("epoch_s", m.epochSim[:1])
		}
		d.uint("kernels", m.dev.kernels)
	}
	p.digest = d.sum()
	return p, nil
}

func (p trainPass) firstLosses() []float64 {
	var l []float64
	for _, m := range p.models {
		l = append(l, m.losses[0])
	}
	return l
}

func newTrainBench(o options, name string, runs []suiteRun) *bench {
	serial := backend.NewSerial()
	b := &bench{name: name}
	b.pass = func(ck *checks) (passOut, error) {
		p, err := runTrainPass(runs, o.seed, true, serial, nil)
		if err != nil {
			return passOut{}, err
		}
		ck.expect(allFinite(p.firstLosses()), "%s: a loss is not finite: %v", name, p.firstLosses())
		return p.passOut, nil
	}
	b.onceChecks = func(ck *checks) error { return crossCheckCoreRun(ck, o.seed, runs, serial) }
	b.layers = func(ck *checks, tr *tracer, warm passOut) ([]metric, []string, error) {
		return trainLayers(ck, tr, o, warm, runs, serial)
	}
	b.setupOnly = func() (time.Duration, error) {
		var d time.Duration
		for _, run := range runs {
			m, err := runModel(run, o.seed, true, serial, nil, 0)
			if err != nil {
				return 0, err
			}
			d += m.setup
		}
		return d, nil
	}
	return b
}

// crossCheckCoreRun shows the harness measures the program users run: for
// KGNNL its own composition must equal core.Run's losses and simulated epoch
// seconds bit for bit. Workloads without KGNNL skip it.
func crossCheckCoreRun(ck *checks, seed int64, runs []suiteRun, be backend.Backend) error {
	for _, run := range runs {
		if run.key != "KGNNL" {
			continue
		}
		mine, err := runModel(run, seed, true, be, nil, 1)
		if err != nil {
			return err
		}
		theirs, err := core.Run(core.RunConfig{Workload: run.key, Dataset: run.dataset, Epochs: 1, Seed: seed})
		if err != nil {
			return err
		}
		ck.expect(sameBits(mine.losses, theirs.Losses), "KGNNL losses %v differ from core.Run's %v", mine.losses, theirs.Losses)
		ck.expect(sameBits(mine.epochSim, theirs.EpochSeconds), "KGNNL simulated epoch seconds %v differ from core.Run's %v", mine.epochSim, theirs.EpochSeconds)
	}
	return nil
}

// trainLayers runs the per-layer passes: a plain reference pass, pass T
// (obs enabled, device, profiler, timing wrapper) and pass N (no device).
// The device-model share comes from outside by subtraction, with no patch to
// the program: losses are identical with and without a device.
func trainLayers(ck *checks, tr *tracer, o options, warm passOut, runs []suiteRun, serial backend.Backend) ([]metric, []string, error) {
	pool0 := tensor.GetPoolStats()
	id := tr.begin("harness", "plain pass")
	plain, err := runTrainPass(runs, o.seed, true, serial, nil)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	pool1 := tensor.GetPoolStats()

	timed := newTimedBackend(serial, tr)
	obs.Enable()
	id = tr.begin("harness", "pass T")
	passT, err := runTrainPass(runs, o.seed, true, serial, timed)
	tr.end(id)
	obs.Disable()
	if err != nil {
		return nil, nil, err
	}

	id = tr.begin("harness", "pass N")
	passN, err := runTrainPass(runs, o.seed, false, serial, nil)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}

	// The subtraction is only valid if all three passes did the same
	// arithmetic.
	ck.expect(sameBits(passT.firstLosses(), plain.firstLosses()), "pass T losses %v differ from the untraced pass's %v", passT.firstLosses(), plain.firstLosses())
	ck.expect(sameBits(passN.firstLosses(), plain.firstLosses()), "pass N (no device) losses %v differ from the untraced pass's %v", passN.firstLosses(), plain.firstLosses())
	ck.expect(passT.digest == plain.digest, "pass T digest differs from the untraced pass's")

	var ms []metric
	ms = append(ms, timed.metrics()...)

	var devs deviceTotals
	var phases obs.PhaseBreakdown
	var opclass ops.OpClassBreakdown
	for _, m := range plain.models {
		devs.merge(m.dev)
	}
	for _, m := range passT.models {
		phases.DataLoad += m.phases.DataLoad
		phases.Forward += m.phases.Forward
		phases.Backward += m.phases.Backward
		phases.Optimizer += m.phases.Optimizer
		for i := range opclass.Nanos {
			opclass.Nanos[i] += m.opclass.Nanos[i]
		}
	}
	// Two untraced passes ran (the warm-up and plain); host noise only ever
	// adds time, so the smaller is the reference for both subtractions.
	ref := min(warm.wall, plain.wall)
	modelS := (ref - passN.wall).Seconds()
	ms = append(ms,
		hostMetric("backend.total.busy_share", "ratio", ratio(timed.totalBusy().Seconds(), passT.wall.Seconds())),
		hostMetric("gpu.model_s", "s", modelS),
		hostMetric("gpu.model_share", "ratio", ratio(modelS, ref.Seconds())),
		hostMetric("gpu.ns_per_kernel", "ns", ratio(modelS*1e9, float64(devs.kernels))),
	)
	ms = append(ms, commonLayerMetrics(devs, ref, pool0, pool1)...)
	ms = append(ms, hostMetric("models.self_s", "s", (passN.wall-timed.totalBusy()).Seconds()))
	for _, m := range plain.models {
		ms = append(ms, hostMetric("models."+m.run.label()+".epoch_wall_s", "s", m.wall.Seconds()))
	}
	for _, m := range passT.models {
		if len(m.epochWall) == driftEpochs {
			ms = append(ms,
				hostMetric("models.GW.epoch3_over_epoch1", "ratio", ratio(m.epochWall[driftEpochs-1].Seconds(), m.epochWall[0].Seconds())),
				countMetric("models.GW.epoch1_subnormal_ratio", "ratio", m.subnormal[0]),
				countMetric("models.GW.epoch3_subnormal_ratio", "ratio", m.subnormal[driftEpochs-1]))
		}
	}
	ms = append(ms,
		hostMetric("phase.data_load_s", "s", float64(phases.DataLoad)/1e9),
		hostMetric("phase.forward_s", "s", float64(phases.Forward)/1e9),
		hostMetric("phase.backward_s", "s", float64(phases.Backward)/1e9),
		hostMetric("phase.optimizer_s", "s", float64(phases.Optimizer)/1e9),
	)
	ms = append(ms, opclassMetrics(opclass)...)
	ms = append(ms,
		hostMetric("opclass.coverage_ratio", "ratio", ratio(float64(opclass.Total()), float64(passT.wall))),
		hostMetric("obs.overhead_ratio", "ratio", ratio(passT.wall.Seconds(), ref.Seconds())-1),
	)
	if hasKey(runs, "PSAGE") {
		ms = append(ms, sampleProbe(tr, o.seed))
	}
	notes := []string{
		fmt.Sprintf("untraced passes %.3fs and %.3fs, pass T %.3fs, pass N %.3fs (host)", warm.wall.Seconds(), plain.wall.Seconds(), passT.wall.Seconds(), passN.wall.Seconds()),
		"backend.gemm.subnormal_ratio covers every GEMM of pass T, GW's drift epochs included; busy_s and calls cover first epochs only",
	}
	return ms, notes, nil
}

func hasKey(runs []suiteRun, key string) bool {
	for _, r := range runs {
		if r.key == key {
			return true
		}
	}
	return false
}

// opclassMetrics reports the host time the program's own counters attribute
// to each op class; the harness reads them, it does not add them.
func opclassMetrics(b ops.OpClassBreakdown) []metric {
	var ms []metric
	for _, c := range gpu.AllOpClasses() {
		if b.Nanos[c] > 0 {
			ms = append(ms, hostMetric("opclass."+c.String()+".host_s", "s", float64(b.Nanos[c])/1e9))
		}
	}
	return append(ms, hostMetric("opclass.total.host_s", "s", float64(b.Total())/1e9))
}
