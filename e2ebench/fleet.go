package main

import (
	"fmt"
	"path/filepath"
	"time"

	"gnnmark/internal/gpu"
	"gnnmark/internal/obs"
	"gnnmark/internal/scenario"
	"gnnmark/internal/tensor"
)

// fleet_scenarios: the same training stack used differently. Replicas run as
// goroutines sharing the parallel backend's pool, with exec barriers, ring
// all-reduce, halo exchange, checkpoints, loader goroutines and the
// panic/recover failure path. Fleets are world 2 and loader workers 2, so
// goroutines never outnumber the two cores of the reference machine. The
// files carry no rerun-digest assertion: the harness compares digests across
// passes itself.
var fleetFiles = []string{
	"ddp-clean", "ddp-elastic-xid", "partitioned-overlap", "pipelined-loader-kill", "oom-cliff",
}

// setupRepeats is how often a pass repeats its set-up (parse, validate and
// flatten every file, under 0.1 ms) to report a steady median. On the shared
// reference machine slow bursts last tens of milliseconds, so a pass times
// about 40 ms of repeats and the run takes the median over its passes.
const setupRepeats = 500

// fleetPass is one pass over the scenario files.
type fleetPass struct {
	passOut
	outcomes []*scenario.Outcome
	walls    []time.Duration
}

type fleetBench struct {
	o     options
	paths []string
}

func newFleetBench(o options) (*bench, error) {
	f := &fleetBench{o: o}
	files := fleetFiles
	if o.smoke {
		files = []string{"partitioned-overlap"}
	}
	for _, name := range files {
		f.paths = append(f.paths, filepath.Join(scenarioDir, name+".yaml"))
	}
	b := &bench{name: "fleet_scenarios"}
	b.pass = func(ck *checks) (passOut, error) {
		p, err := f.run(ck, nil)
		return p.passOut, err
	}
	b.layers = f.layers
	return b, nil
}

// load parses, validates and flattens every file, and gives each scenario a
// seed derived from -seed.
func (f *fleetBench) load() ([]*scenario.Scenario, error) {
	var scs []*scenario.Scenario
	for i, path := range f.paths {
		sc, err := scenario.ParseFile(path)
		if err != nil {
			return nil, err
		}
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		if _, err := sc.Fleet.Slots(); err != nil {
			return nil, err
		}
		sc.Seed = f.o.seed*int64(len(fleetFiles)) + int64(i)
		if f.o.smoke {
			sc.Workload.Warps = 64
		}
		scs = append(scs, sc)
	}
	return scs, nil
}

func (f *fleetBench) run(ck *checks, tr *tracer) (fleetPass, error) {
	var p fleetPass
	var setups samples
	var scs []*scenario.Scenario
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if scs, err = f.load(); err != nil {
			return p, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p.setup = time.Duration(setups.median() * float64(time.Second))

	var d digester
	for i, sc := range scs {
		id := tr.begin("scenario", "Run "+sc.Name)
		t0 := time.Now()
		out, err := scenario.Run(sc)
		wall := time.Since(t0)
		tr.end(id)
		// An unmet assertion is a failed output check, not a harness error.
		ck.expect(err == nil, "scenario %s: %v", sc.Name, err)
		if out == nil {
			return p, fmt.Errorf("scenario %s (%s): %w", sc.Name, f.paths[i], err)
		}
		ck.expect(allFinite(out.Losses), "scenario %s: a loss is not finite: %v", sc.Name, out.Losses)
		p.wall += wall
		p.walls = append(p.walls, wall)
		p.outcomes = append(p.outcomes, out)
		p.sim += out.TotalSeconds
		d.str(sc.Name + " " + out.Digest)
	}
	p.digest = d.sum()
	return p, nil
}

// layers runs a plain reference pass and a spanned pass. scenario.Run builds
// its own devices and backends, so neither the timing wrapper nor a
// device-less pass can be injected; the per-layer numbers come from each
// Outcome and its obs snapshot (the program enables obs itself for every
// scenario), plus direct timed calls into exec, loader and nn.
func (f *fleetBench) layers(ck *checks, tr *tracer, warm passOut) ([]metric, []string, error) {
	pool0 := tensor.GetPoolStats()
	id := tr.begin("harness", "plain pass")
	plain, err := f.run(ck, nil)
	tr.end(id)
	pool1 := tensor.GetPoolStats()
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("harness", "pass T")
	passT, err := f.run(ck, tr)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	ck.expect(passT.digest == plain.digest, "pass T digest differs from the untraced pass's")
	// Host noise only ever adds time: the smaller untraced pass is the
	// reference.
	ref := min(warm.wall, plain.wall)

	var ms []metric
	var sum obsSums
	for i, out := range passT.outcomes {
		ms = append(ms, hostMetric("scenario."+out.Scenario+".wall_s", "s", passT.walls[i].Seconds()))
		sum.add(out.Metrics)
		if out.Scenario == "ddp-elastic-xid" {
			ms = append(ms,
				countMetric("ddp.recoveries", "count", float64(out.Recoveries)),
				simMetric("ddp.sim_goodput", "ratio", out.Goodput))
		}
	}
	ms = append(ms,
		countMetric("ddp.allreduce_mb", "MB", sum.counter("ddp.allreduce_bytes_total")/1e6),
		hostMetric("ddp.reduce_host_s", "s", sum.histSum("ddp.reduce_host_nanos")/1e9),
		countMetric("partitioned.halo_mb", "MB", sum.counter("halo.bytes_total")/1e6),
		countMetric("partitioned.halo_exchanges", "count", sum.counter("halo.exchanges_total")),
		countMetric("loader.batches", "count", sum.counter("loader.batches_total")),
		hostMetric("loader.wait_s", "s", sum.counter("loader.wait_nanos_total")/1e9),
		countMetric("backend.pool.dispatch_ratio", "ratio", ratio(sum.counter("backend.dispatches_total"),
			sum.counter("backend.dispatches_total")+sum.counter("backend.inline_runs_total"))),
	)
	// scenario.Run owns its devices; their totals come from its obs snapshot.
	ms = append(ms, commonLayerMetrics(deviceTotals{
		kernels:    uint64(sum.counter("ops.kernels_total")),
		h2dBytes:   uint64(sum.counter("ops.h2d_bytes_total")),
		vmemAllocs: uint64(sum.counter("vmem.allocs_total")),
		vmemReuse:  uint64(sum.counter("vmem.reuse_hits_total")),
		vmemPeak:   int64(sum.gaugeMax["vmem.peak_bytes"]),
	}, ref, pool0, pool1)...)
	ms = append(ms,
		hostMetric("phase.data_load_s", "s", sum.counter("phase.data_load_nanos")/1e9),
		hostMetric("phase.forward_s", "s", sum.counter("phase.forward_nanos")/1e9),
		hostMetric("phase.backward_s", "s", sum.counter("phase.backward_nanos")/1e9),
		hostMetric("phase.optimizer_s", "s", sum.counter("phase.optimizer_nanos")/1e9),
		hostMetric("phase.allreduce_s", "s", sum.counter("phase.allreduce_nanos")/1e9),
	)
	ms = append(ms, sum.opclassMetrics()...)
	ms = append(ms, barrierProbe(ck, tr)...)
	ms = append(ms, codecProbe(tr, f.o.seed))
	ms = append(ms, checkpointProbe(ck, tr, f.o.seed, "DGCN", "ogbg-molhiv")...)
	ms = append(ms, hostMetric("obs.overhead_ratio", "ratio", ratio(passT.wall.Seconds(), ref.Seconds())-1))
	notes := []string{
		fmt.Sprintf("untraced passes %.3fs and %.3fs, spanned pass %.3fs (host)", warm.wall.Seconds(), plain.wall.Seconds(), passT.wall.Seconds()),
		"phase.* and opclass.* sum over replicas running concurrently, so they can exceed the pass wall",
		"counters are what each scenario's obs registry held when it ended; core.Run and the elastic controller reset it after construction",
	}
	return ms, notes, nil
}

// obsSums adds up the obs snapshots of several scenario outcomes.
type obsSums struct {
	counters map[string]float64
	hists    map[string]float64
	gaugeMax map[string]float64
}

func (s *obsSums) add(snap obs.Snapshot) {
	if s.counters == nil {
		s.counters, s.hists, s.gaugeMax = map[string]float64{}, map[string]float64{}, map[string]float64{}
	}
	for _, c := range snap.Counters {
		s.counters[c.Name] += float64(c.Value)
	}
	for _, h := range snap.Histograms {
		s.hists[h.Name] += float64(h.Sum)
	}
	for _, g := range snap.Gauges {
		s.gaugeMax[g.Name] = max(s.gaugeMax[g.Name], float64(g.Value))
	}
}

func (s *obsSums) counter(name string) float64 { return s.counters[name] }
func (s *obsSums) histSum(name string) float64 { return s.hists[name] }

// opclassMetrics reads the per-op-class host time the program attributed.
func (s *obsSums) opclassMetrics() []metric {
	var ms []metric
	total := 0.0
	for _, c := range gpu.AllOpClasses() {
		if v := s.histSum("ops.class." + c.String() + ".host_nanos"); v > 0 {
			total += v
			ms = append(ms, hostMetric("opclass."+c.String()+".host_s", "s", v/1e9))
		}
	}
	return append(ms, hostMetric("opclass.total.host_s", "s", total/1e9))
}
