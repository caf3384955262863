package bench

import (
	"fmt"

	"gnnmark/internal/core"
	"gnnmark/internal/serve"
)

// ServeConfig holds the serve-bench study's knobs on top of the shared run
// config. Zero values self-calibrate against the measured batch-of-1 service
// time so the sweep tracks the device model instead of hardcoding rates.
type ServeConfig struct {
	// Run supplies workload, dataset, seed, GPU preset, backend, warp
	// budget, and the training-epoch count before the freeze (default 1).
	Run core.RunConfig
	// Replicas is the frozen-replica count, each on its own simulated
	// device (default 2).
	Replicas int
	// QPS is the offered open-loop arrival rate (default: LoadFactor times
	// the measured batch-1 capacity of the replica pool).
	QPS float64
	// LoadFactor scales the calibrated default QPS relative to the pool's
	// batch-1 capacity (default 4 — a saturating load; the smoke run uses
	// 0.5 to assert a healthy endpoint rejects nothing).
	LoadFactor float64
	// Duration is the arrival-trace horizon in simulated seconds (default:
	// 400 batch-1 service times).
	Duration float64
	// MaxWaitSeconds is the batching window (default: one batch-1 service
	// time).
	MaxWaitSeconds float64
	// QueueCap bounds the admission queue (default 64; <0 = unbounded).
	QueueCap int
	// Batches lists the MaxBatch policy arms (default 1, 4, 16).
	Batches []int
	// CacheRows lists the embedding-cache arms (default 0, 1024).
	CacheRows []int
	// Arrivals, when non-empty, replays this exact trace instead of
	// generating one (QPS and Duration are then ignored for generation but
	// Duration still defaults the batching window calibration).
	Arrivals []serve.Request
}

// FigSRow is one (batch policy, cache size) arm's measured outcome.
type FigSRow struct {
	MaxBatch  int
	CacheRows int
	Stats     serve.Stats
}

// FigSResult is everything the serve-bench command prints: Figure S, the
// closed-loop serving study — QPS and tail latency across micro-batch
// policies and embedding-cache sizes on frozen-weight replicas.
type FigSResult struct {
	// ServeConfig is the study's configuration with every default resolved
	// (the calibrated QPS, Duration and MaxWaitSeconds included).
	ServeConfig
	Dataset string
	// BatchOneSeconds is the measured batch-of-1 service time used to
	// calibrate the defaults.
	BatchOneSeconds float64
	Arrived         int
	Rows            []FigSRow
}

// trainAndFreeze trains one instance and freezes it through the checkpoint
// stream — the same bytes a training run would leave on disk. Only the
// snapshot, item count and resolved dataset name outlive the trainer.
func trainAndFreeze(run core.RunConfig) (w *serve.Weights, items int, dataset string, err error) {
	trainer, rep, err := core.NewServable(run, 0, nil)
	if err != nil {
		return nil, 0, "", err
	}
	defer rep.Env.Close()
	for e := 0; e < run.Epochs; e++ {
		if _, err := rep.Epoch(); err != nil {
			return nil, 0, "", err
		}
	}
	w, err = core.Freeze(trainer)
	return w, trainer.NumItems(), rep.Dataset, err
}

// FigS runs the serving study: train the workload for Run.Epochs epochs,
// freeze the weights through the training-checkpoint stream, fan them out to
// Replicas fresh-device replicas, and drive one seeded open-loop arrival
// trace through every (MaxBatch, CacheRows) policy arm. Each arm gets its
// own replicas (cold device and cache), so arms are independent and the whole
// sweep is a pure function of the config — reruns are bit-identical.
func FigS(cfg ServeConfig) (*FigSResult, error) {
	if cfg.Run.Workload == "" {
		cfg.Run.Workload = "PSAGE"
	}
	if cfg.Run.Epochs == 0 {
		cfg.Run.Epochs = 1
	}
	if cfg.Run.Seed == 0 {
		cfg.Run.Seed = 1
	}
	if cfg.Run.SampledWarps == 0 {
		cfg.Run.SampledWarps = 512
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.LoadFactor <= 0 {
		cfg.LoadFactor = 4
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	} else if cfg.QueueCap < 0 {
		cfg.QueueCap = 0 // unbounded
	}
	if len(cfg.Batches) == 0 {
		cfg.Batches = []int{1, 4, 16}
	}
	if len(cfg.CacheRows) == 0 {
		cfg.CacheRows = []int{0, 1024}
	}

	w, items, dataset, err := trainAndFreeze(cfg.Run)
	if err != nil {
		return nil, err
	}

	// Calibrate defaults against one measured batch-of-1 service time.
	cal, err := core.NewServingPool(cfg.Run, 1, 1, w)
	if err != nil {
		return nil, err
	}
	_, d1, err := cal.Serving[0].Serve([]int32{0})
	cal.Close()
	if err != nil {
		return nil, err
	}
	if cfg.MaxWaitSeconds == 0 {
		cfg.MaxWaitSeconds = d1
	}
	if cfg.QPS == 0 {
		cfg.QPS = cfg.LoadFactor * float64(cfg.Replicas) / d1
	}
	if cfg.Duration == 0 {
		cfg.Duration = 400 * d1
	}
	reqs := cfg.Arrivals
	if len(reqs) == 0 {
		reqs = serve.OpenArrivals(serve.LoadConfig{
			Seed: cfg.Run.Seed, QPS: cfg.QPS, Duration: cfg.Duration, Items: items,
		})
	}

	res := &FigSResult{ServeConfig: cfg, Dataset: dataset, BatchOneSeconds: d1, Arrived: len(reqs)}
	for _, cache := range cfg.CacheRows {
		for _, b := range cfg.Batches {
			pool, err := core.NewServingPool(cfg.Run, cfg.Replicas, 1, w)
			if err != nil {
				return nil, err
			}
			s := serve.New(serve.Config{
				Endpoint:       fmt.Sprintf("figs.b%d.c%d", b, cache),
				MaxBatch:       b,
				MaxWaitSeconds: cfg.MaxWaitSeconds,
				QueueCap:       cfg.QueueCap,
				CacheRows:      cache,
			}, pool.Serving)
			st, err := s.Run(serve.NewSliceSource(reqs))
			pool.Close()
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, FigSRow{MaxBatch: b, CacheRows: cache, Stats: st})
		}
	}
	return res, nil
}

// Figure is the serving study: one row per policy arm.
func (res *FigSResult) Figure() Figure {
	us := func(head string, width int) Column { return Column{head, width, "%.2f", false} }
	count := func(head string, width int) Column { return Column{head, width, "%d", false} }
	f := Figure{ID: "serve-bench",
		Title: fmt.Sprintf("figs: QPS vs tail latency across micro-batch policies and cache sizes — %s/%s frozen after %d epoch(s), %d replicas, seed %d",
			res.Run.Workload, res.Dataset, res.Run.Epochs, res.Replicas, res.Run.Seed),
		Lead: []string{fmt.Sprintf("offered load %.0f req/s over %.6fs (%d arrivals); batch-1 service time %.2fus; batching window %.2fus; queue cap %d",
			res.QPS, res.Duration, res.Arrived, res.BatchOneSeconds*1e6, res.MaxWaitSeconds*1e6, res.QueueCap), ""},
		Columns: []Column{count("batch", 7), count("cache", 6), {"qps", 10, "%.0f", false},
			us("p50_us", 10), us("p95_us", 9), us("p99_us", 9), us("mbatch", 7), us("hit", 6),
			count("rejected", 9), count("maxq", 7), us("dev_us/req", 9)},
		Notes: []string{"", "every arm replays the identical seeded arrival trace on cold replicas; micro-batching",
			"amortizes per-batch launches and copies into QPS, and the LRU embedding cache converts",
			"Zipf-skewed popularity into hits that bypass the device entirely."}}
	for _, row := range res.Rows {
		st := row.Stats
		f.add(row.MaxBatch, row.CacheRows, st.QPS, st.P50*1e6, st.P95*1e6, st.P99*1e6,
			st.MeanBatch, st.HitRate(), st.Rejected, st.MaxQueueDepth, st.MeanDeviceSeconds*1e6)
	}
	return f
}
