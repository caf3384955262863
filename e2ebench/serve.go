package main

import (
	"bytes"
	"fmt"
	"time"

	"gnnmark/internal/backend"
	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/nn"
	"gnnmark/internal/obs"
	"gnnmark/internal/ops"
	"gnnmark/internal/serve"
	"gnnmark/internal/tensor"
)

// serve_infer: forward-only, batch-of-1 to 16 shapes plus per-request
// random-walk sampling, so backend and device model see inference-sized work
// (a training-shaped kernel win may be a loss here), and the serving plane's
// queue, cache and event loop do work nowhere else.
const (
	serveKey, serveDataset = "PSAGE", "MVL"
	serveWarps             = 512 // the serve-bench fidelity tier
	serveReplicas          = 2
	serveRequests          = 4000
	serveSmokeRequests     = 200
	// Offered load as a share of the measured simulated batch-1 capacity of
	// the replicas; with queue cap 64 no arm should reject at 0.7.
	serveLoad     = 0.7
	serveQueueCap = 64
)

// serveArm is one cold policy arm of a pass.
type serveArm struct {
	name             string
	maxBatch, cacheN int
}

var serveArms = []serveArm{{"b1.c0", 1, 0}, {"b16.c0", 16, 0}, {"b16.c1024", 16, 1024}}

// headlineArm is the arm whose simulated QPS and p99 are reported.
const headlineArm = "b16.c1024"

// serveSetup is what set-up leaves for the arms: frozen weights fanned out to
// one cold replica pair per arm, and the calibrated trace.
type serveSetup struct {
	pools [][]*serve.Replica
	envs  []*models.Env
	devs  []*gpu.Device
	reqs  []serve.Request
	d1    float64
	// totals counts the replicas' host-to-device bytes as they serve.
	totals deviceTotals
}

func (s *serveSetup) close() {
	for _, p := range s.pools {
		for _, r := range p {
			r.Close()
		}
	}
	for _, e := range s.envs {
		e.Close()
	}
}

// buildServable builds PSAGE/MVL on a fresh device.
func buildServable(seed int64, be backend.Backend) (models.Servable, *models.Env, *gpu.Device, error) {
	spec, err := core.Lookup(serveKey)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg, err := gpu.Preset(trainPreset)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.MaxSampledWarps = serveWarps
	dev := gpu.New(cfg)
	env := models.NewEnv(ops.NewWith(dev, be), seed)
	sv, ok := spec.Build(env, serveDataset, 1).(models.Servable)
	if !ok {
		env.Close()
		return nil, nil, nil, fmt.Errorf("%s does not serve embeddings", serveKey)
	}
	return sv, env, dev, nil
}

// setupServe is the workload's set-up: one PSAGE training epoch, a freeze
// through the training-checkpoint stream (the bytes a run leaves on disk),
// a batch-of-1 calibration, the trace, and replica construction.
func setupServe(o options, be backend.Backend) (*serveSetup, error) {
	trainer, trainerEnv, _, err := buildServable(o.seed, be)
	if err != nil {
		return nil, err
	}
	trainer.TrainEpoch()
	items := trainer.NumItems()
	var buf bytes.Buffer
	err = nn.SaveTraining(&buf, trainer.(models.Checkpointable).Optimizer())
	trainerEnv.Close()
	if err != nil {
		return nil, err
	}
	weights, err := serve.Freeze(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}

	s := &serveSetup{}
	newReplica := func(rank int) (*serve.Replica, error) {
		m, env, dev, err := buildServable(o.seed, be)
		if err != nil {
			return nil, err
		}
		s.envs = append(s.envs, env)
		s.devs = append(s.devs, dev)
		if err := weights.LoadInto(m.Params()); err != nil {
			return nil, err
		}
		// Serving measures forward passes only: rebase the clock and the
		// kernel count past construction, and count transfers from here on.
		dev.ResetClock()
		s.totals.countH2D(dev)
		return serve.NewReplica(rank, m, env.E.SimClock), nil
	}

	cal, err := newReplica(0)
	if err != nil {
		s.close()
		return nil, err
	}
	_, s.d1, err = cal.Serve([]int32{0})
	cal.Close()
	if err != nil {
		s.close()
		return nil, err
	}
	n := serveRequests
	if o.smoke {
		n = serveSmokeRequests
	}
	qps := serveLoad * serveReplicas / s.d1
	// A horizon a quarter longer than n requests need, cut to exactly n.
	s.reqs = serve.OpenArrivals(serve.LoadConfig{Seed: o.seed, QPS: qps, Duration: 1.25 * float64(n) / qps, Items: items})
	if len(s.reqs) < n {
		s.close()
		return nil, fmt.Errorf("arrival trace has %d requests, want %d", len(s.reqs), n)
	}
	s.reqs = s.reqs[:n]

	for range serveArms {
		var pool []*serve.Replica
		for r := 0; r < serveReplicas; r++ {
			rep, err := newReplica(r)
			if err != nil {
				s.close()
				return nil, err
			}
			pool = append(pool, rep)
		}
		s.pools = append(s.pools, pool)
	}
	return s, nil
}

// servePass is one pass: set-up, then the trace through the three arms.
type servePass struct {
	passOut
	stats   []serve.Stats
	armWall []time.Duration
	dev     deviceTotals
}

// runServePass replays the trace through every arm. The loop runs in
// simulated time from a precomputed schedule: latency counts from the due
// time and generator lateness is zero by construction.
func runServePass(o options, be backend.Backend, tr *tracer, ck *checks) (servePass, error) {
	var p servePass
	t0 := time.Now()
	s, err := setupServe(o, be)
	if err != nil {
		return p, err
	}
	defer s.close()
	p.setup = time.Since(t0)

	var d digester
	d.floats("d1", []float64{s.d1})
	for i, arm := range serveArms {
		id := tr.begin("serve", "arm "+arm.name)
		a0 := time.Now()
		st, err := serve.New(serve.Config{
			Endpoint: "e2e." + arm.name, MaxBatch: arm.maxBatch, MaxWaitSeconds: s.d1,
			QueueCap: serveQueueCap, CacheRows: arm.cacheN,
		}, s.pools[i]).Run(serve.NewSliceSource(s.reqs))
		wall := time.Since(a0)
		tr.end(id)
		if err != nil {
			return p, err
		}
		p.wall += wall
		p.armWall = append(p.armWall, wall)
		p.stats = append(p.stats, st)
		p.sim += st.DeviceSeconds
		ck.expect(st.Arrived == st.Completed+st.Rejected, "arm %s: arrived %d != completed %d + rejected %d", arm.name, st.Arrived, st.Completed, st.Rejected)
		ck.expect(st.Rejected == 0, "arm %s rejected %d requests at %.1fx load", arm.name, st.Rejected, serveLoad)
		ck.expect(st.Arrived == int64(len(s.reqs)), "arm %s saw %d of %d requests", arm.name, st.Arrived, len(s.reqs))
		d.str(arm.name)
		d.uint("arrived", uint64(st.Arrived))
		d.uint("completed", uint64(st.Completed))
		d.uint("hits", uint64(st.CacheHits))
		d.uint("batches", uint64(st.Batches))
		d.uint("maxq", uint64(st.MaxQueueDepth))
		d.floats("lat", []float64{st.P50, st.P95, st.P99, st.MeanLatency, st.QPS, st.DeviceSeconds, st.Makespan})
		if arm.name == headlineArm {
			p.exact = []metric{
				simMetric("serve_sim_qps", "1/s", st.QPS),
				simMetric("serve_sim_p99_us", "us", st.P99*1e6),
			}
		}
	}
	p.dev = s.totals
	for _, dev := range s.devs {
		p.dev.addDevice(dev)
	}
	d.uint("kernels", p.dev.kernels)
	p.digest = d.sum()
	return p, nil
}

func newServeBench(o options) *bench {
	serial := backend.NewSerial()
	b := &bench{name: "serve_infer"}
	b.pass = func(ck *checks) (passOut, error) {
		p, err := runServePass(o, serial, nil, ck)
		return p.passOut, err
	}
	b.layers = func(ck *checks, tr *tracer, warm passOut) ([]metric, []string, error) {
		return serveLayers(ck, tr, o, warm, serial)
	}
	return b
}

// serveLayers runs a plain reference pass and pass T (obs enabled, timing
// wrapper). There is no pass N: without a device the service times the event
// loop schedules by are all zero, so it would be a different run.
func serveLayers(ck *checks, tr *tracer, o options, warm passOut, serial backend.Backend) ([]metric, []string, error) {
	pool0 := tensor.GetPoolStats()
	id := tr.begin("harness", "plain pass")
	plain, err := runServePass(o, serial, nil, ck)
	tr.end(id)
	pool1 := tensor.GetPoolStats()
	if err != nil {
		return nil, nil, err
	}

	timed := newTimedBackend(serial, tr)
	obs.Enable()
	id = tr.begin("harness", "pass T")
	passT, err := runServePass(o, timed, tr, ck)
	tr.end(id)
	obs.Disable()
	if err != nil {
		return nil, nil, err
	}
	ck.expect(passT.digest == plain.digest, "pass T digest differs from the untraced pass's")
	// Host noise only ever adds time: the smaller untraced pass is the
	// reference.
	ref := min(warm.wall, plain.wall)

	var ms []metric
	ms = append(ms, timed.metrics()...)
	var served, rejected int64
	for i, arm := range serveArms {
		ms = append(ms, hostMetric("serve.arm."+arm.name+".wall_s", "s", plain.armWall[i].Seconds()))
		served += plain.stats[i].Completed
		rejected += plain.stats[i].Rejected
	}
	head := plain.stats[len(serveArms)-1]
	ms = append(ms,
		hostMetric("serve.host_us_per_req", "us", ratio(plain.wall.Seconds()*1e6, float64(served))),
		simMetric("serve.sim_qps", "1/s", head.QPS),
		simMetric("serve.sim_p99_us", "us", head.P99*1e6),
		countMetric("serve.cache.hit_ratio", "ratio", head.HitRate()),
		countMetric("serve.mean_batch", "count", head.MeanBatch),
		countMetric("serve.max_queue_depth", "count", float64(head.MaxQueueDepth)),
		simMetric("serve.sim_device_us_per_req", "us", head.MeanDeviceSeconds*1e6),
		countMetric("serve.rejected", "count", float64(rejected)),
	)
	ms = append(ms, commonLayerMetrics(plain.dev, ref, pool0, pool1)...)
	ms = append(ms, replicaProbe(ck, tr, o, serial)...)
	ms = append(ms, sampleProbe(tr, o.seed))
	ms = append(ms, checkpointProbe(ck, tr, o.seed, serveKey, serveDataset)...)
	ms = append(ms,
		hostMetric("backend.total.busy_share", "ratio", ratio(timed.totalBusy().Seconds(), (passT.setup+passT.wall).Seconds())),
		hostMetric("obs.overhead_ratio", "ratio", ratio(passT.wall.Seconds(), ref.Seconds())-1),
	)
	notes := []string{
		fmt.Sprintf("untraced passes %.3fs and %.3fs, pass T %.3fs (host); set-up %.3fs", warm.wall.Seconds(), plain.wall.Seconds(), passT.wall.Seconds(), plain.setup.Seconds()),
		"backend.* covers set-up (one training epoch, replica construction) and the three arms of pass T",
		"opclass.* is not reported: the engine charges the host time a replica sat idle between requests to its next kernel, so the program's own attribution is wrong under serving",
		"open loop from a precomputed schedule in simulated time: latency counts from the due time, generator lateness is 0 by construction",
	}
	return ms, notes, nil
}

// replicaProbe times Replica.Serve directly at batch 1 and batch 16.
func replicaProbe(ck *checks, tr *tracer, o options, be backend.Backend) []metric {
	m, env, _, err := buildServable(o.seed, be)
	if err != nil {
		ck.expect(false, "replica probe: %v", err)
		return nil
	}
	defer env.Close()
	rep := serve.NewReplica(0, m, env.E.SimClock)
	defer rep.Close()
	time1 := func(name string, ids []int32) metric {
		const reps = 20
		var err error
		id := tr.begin("serve", name)
		for i := 0; i < reps && err == nil; i++ {
			_, _, err = rep.Serve(ids)
		}
		d := tr.end(id)
		ck.expect(err == nil, "replica probe %s: %v", name, err)
		return hostMetric("serve.replica."+name+"_us", "us", d.Seconds()*1e6/reps)
	}
	ids := make([]int32, 16)
	for i := range ids {
		ids[i] = int32(i * 7 % m.NumItems())
	}
	return []metric{time1("b1", ids[:1]), time1("b16", ids)}
}
