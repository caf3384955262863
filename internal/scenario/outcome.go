package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"gnnmark/internal/models"
	"gnnmark/internal/obs"
	"gnnmark/internal/serve"
)

// Outcome is everything one scenario execution produced. The digest covers
// only the simulated-time, plane-level outputs (losses, epoch seconds,
// elastic accounting, serving stats) — never the host wall-clock obs
// metrics, which vary run to run and exist only for threshold assertions.
type Outcome struct {
	Scenario string
	Seed     int64
	// World is the fleet slot count; Plane the executor branch taken (the
	// name of its trainPlanes row).
	World int
	Plane string

	// Losses are the kept epochs' mean losses in completion order;
	// CompletedEpochs counts them.
	Losses          []float64
	CompletedEpochs int
	// EpochSeconds is simulated time per kept epoch (empty under elastic
	// DDP, which accounts rounds, not epochs — see the accounting fields).
	EpochSeconds []float64
	// TotalSeconds is the run's simulated makespan (elastic runs include
	// lost work and recovery overhead).
	TotalSeconds float64
	// PeakBytes is the device allocator high-water mark (max across ranks).
	PeakBytes int64

	// Elastic accounting (ddp plane only; zero otherwise).
	UsefulSeconds   float64
	LostSeconds     float64
	OverheadSeconds float64
	Goodput         float64
	Recoveries      int
	Survivors       []int

	// OOM/Aborted record a recognized failure instead of a completed run:
	// a simulated out-of-memory (OOM) or a fatal health abort (Aborted).
	// FailMsg carries the error text for the kinds that expect it.
	OOM     bool
	Aborted bool
	FailMsg string

	// Serve is the serving phase's stats (nil without a serve section);
	// ServeBatchOneSeconds the measured batch-1 service time the phase's
	// rates were calibrated against.
	Serve                *serve.Stats
	ServeBatchOneSeconds float64

	// Metrics snapshots the execution's own obs run at its end, for the
	// metric assertions. EXCLUDED from the digest: host counters are
	// wall-clock and scheduler-dependent.
	Metrics obs.Snapshot

	// Digest is the canonical outcome digest (hex sha256).
	Digest string

	// trained is the surviving trained workload the serving phase freezes
	// its weights from (nil when training failed or left no replica).
	trained models.Workload
}

// fbits renders a float with exact bit fidelity: any numeric drift —
// even one ulp — changes the digest.
func fbits(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// ComputeDigest canonicalizes the deterministic outcome fields and
// digests them. Reruns of the same scenario file must produce the same
// digest byte for byte; wall-clock observability never contributes.
func (o *Outcome) ComputeDigest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\nseed %d\nworld %d\nplane %s\n", o.Scenario, o.Seed, o.World, o.Plane)
	fmt.Fprintf(&b, "completed %d\n", o.CompletedEpochs)
	for i, l := range o.Losses {
		fmt.Fprintf(&b, "loss %d %s\n", i, fbits(l))
	}
	for i, s := range o.EpochSeconds {
		fmt.Fprintf(&b, "epoch_seconds %d %s\n", i, fbits(s))
	}
	fmt.Fprintf(&b, "total_seconds %s\n", fbits(o.TotalSeconds))
	fmt.Fprintf(&b, "peak_bytes %d\n", o.PeakBytes)
	fmt.Fprintf(&b, "useful %s\nlost %s\noverhead %s\ngoodput %s\nrecoveries %d\n",
		fbits(o.UsefulSeconds), fbits(o.LostSeconds), fbits(o.OverheadSeconds),
		fbits(o.Goodput), o.Recoveries)
	fmt.Fprintf(&b, "survivors %v\n", o.Survivors)
	fmt.Fprintf(&b, "oom %v\naborted %v\nfail %q\n", o.OOM, o.Aborted, o.FailMsg)
	if s := o.Serve; s != nil {
		fmt.Fprintf(&b, "serve arrived %d completed %d rejected %d\n", s.Arrived, s.Completed, s.Rejected)
		fmt.Fprintf(&b, "serve cache %d %d batches %d mean_batch %s maxq %d\n",
			s.CacheHits, s.CacheMisses, s.Batches, fbits(s.MeanBatch), s.MaxQueueDepth)
		fmt.Fprintf(&b, "serve lat %s %s %s %s qps %s dev %s makespan %s\n",
			fbits(s.P50), fbits(s.P95), fbits(s.P99), fbits(s.MeanLatency),
			fbits(s.QPS), fbits(s.DeviceSeconds), fbits(s.Makespan))
		fmt.Fprintf(&b, "serve d1 %s\n", fbits(o.ServeBatchOneSeconds))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Summary renders the outcome for the CLI: one block per scenario run.
func (o *Outcome) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: plane=%s world=%d seed=%d\n", o.Scenario, o.Plane, o.World, o.Seed)
	switch {
	case o.OOM:
		fmt.Fprintf(&b, "  result: OOM after %d epoch(s) — %s\n", o.CompletedEpochs, o.FailMsg)
	case o.Aborted:
		fmt.Fprintf(&b, "  result: aborted after %d epoch(s) — %s\n", o.CompletedEpochs, o.FailMsg)
	default:
		fmt.Fprintf(&b, "  result: %d epoch(s) in %.6fs simulated", o.CompletedEpochs, o.TotalSeconds)
		if len(o.Losses) > 0 {
			fmt.Fprintf(&b, ", final loss %.6f", o.Losses[len(o.Losses)-1])
		}
		b.WriteString("\n")
	}
	if p := planeNamed(o.Plane); o.Recoveries > 0 || p != nil && p.offers&elastic != 0 && o.World > 1 {
		fmt.Fprintf(&b, "  elastic: goodput %.4f, %d recovery(ies), survivors %v, overhead %.3fs, lost %.6fs\n",
			o.Goodput, o.Recoveries, o.Survivors, o.OverheadSeconds, o.LostSeconds)
	}
	if s := o.Serve; s != nil {
		fmt.Fprintf(&b, "  serve: %d/%d completed (%d rejected), qps %.0f, p99 %.2fus, hit rate %.2f, mean batch %.2f\n",
			s.Completed, s.Arrived, s.Rejected, s.QPS, s.P99*1e6, s.HitRate(), s.MeanBatch)
	}
	fmt.Fprintf(&b, "  digest: %s\n", o.Digest)
	return b.String()
}
