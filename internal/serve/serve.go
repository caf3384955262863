// Package serve is the inference serving plane: a forward-only execution
// mode layered on the simulated-GPU engine stack, characterizing the
// latency-bound, concurrent, cache-sensitive behavior that training
// benchmarks never exercise (gSuite's argument for GNN inference as its own
// benchmark problem).
//
// The plane is built from five pieces:
//
//	freeze  — Weights: a read-only parameter snapshot (from training
//	          checkpoint bytes) shared across replicas.
//	queue   — AdmissionQueue: bounded FIFO with typed overload rejection.
//	batcher — Server: dynamic micro-batching under a max-batch/max-wait
//	          policy, dispatching to the earliest-free replica.
//	engine  — Replica: one model instance on its own simulated device,
//	          run on the event loop's goroutine; request cost is the
//	          device-clock delta of the forward pass.
//	cache   — EmbedCache: LRU over finished item embeddings, hit at
//	          admission (skipping queue and compute entirely).
//
// Time is simulated throughout: arrivals, batching deadlines, and
// completions advance a discrete-event clock, and service times come from
// the replicas' gpu.Device kernel model. Everything is a pure function of
// (frozen weights, request trace, policy), so a serving benchmark is
// bit-reproducible run to run — the property gnnmark serve-bench's golden
// output rests on.
package serve

import (
	"fmt"

	"gnnmark/internal/tensor"
)

// Model is the forward-only surface a servable workload exposes
// (models.Servable satisfies it structurally; serve does not import
// models). ServeEmbed must be deterministic per id and batch-invariant —
// a request's row is bitwise identical alone or micro-batched — which is
// what makes batching and caching transparent.
type Model interface {
	ServeEmbed(ids []int32) *tensor.Tensor
	NumItems() int
	// MarkHostBoundary restarts the model engine's per-op host-time
	// attribution (ops.Engine.MarkHostBoundary).
	MarkHostBoundary()
}

// Request is one inference query: embed item Item, arriving at sim time
// Time (seconds). Seq is a global arrival sequence number used only for
// deterministic tie-breaks.
type Request struct {
	Time float64
	Item int32
	Seq  int
}

// Replica owns one model instance on its own engine/device and serves
// micro-batches one at a time on the caller's goroutine: the event loop
// waits for each batch's device cost anyway, and sim-time parallelism across
// replicas is modeled by their independent freeAt clocks.
type Replica struct {
	rank  int
	model Model
	clock func() float64
}

// NewReplica wraps model (already loaded with frozen weights) and its
// device-clock reader. rank breaks scheduling ties deterministically.
func NewReplica(rank int, model Model, clock func() float64) *Replica {
	return &Replica{rank: rank, model: model, clock: clock}
}

// Rank returns the replica's scheduling rank.
func (r *Replica) Rank() int { return r.rank }

// ItemError is the typed rejection of a request for an item the model does
// not have. The replica returns it before the model runs, so a bad id costs
// no device time and leaves the model's engine and sampler state as they
// were.
type ItemError struct {
	Item  int32
	Items int // the model serves [0, Items)
}

func (e *ItemError) Error() string {
	return fmt.Sprintf("serve: item %d out of range [0, %d)", e.Item, e.Items)
}

// Serve embeds ids, returning the embedding rows and the simulated device
// seconds the batch consumed. An out-of-range id is an *ItemError; a model
// panic (corrupt weights) is converted into an error too, so one bad request
// cannot kill the plane.
func (r *Replica) Serve(ids []int32) (emb *tensor.Tensor, device float64, err error) {
	for _, id := range ids {
		if id < 0 || int(id) >= r.model.NumItems() {
			return nil, 0, &ItemError{Item: id, Items: r.model.NumItems()}
		}
	}
	defer func() {
		if p := recover(); p != nil {
			emb, device, err = nil, 0, fmt.Errorf("serve: replica %d panicked: %v", r.rank, p)
		}
	}()
	// The replica sat idle since its last batch; without the boundary the
	// host time in between would be charged to this batch's first kernel.
	r.model.MarkHostBoundary()
	before := r.clock()
	emb = r.model.ServeEmbed(ids)
	return emb, r.clock() - before, nil
}

// Close does nothing: a replica holds no goroutine or other resource. It
// stays because the end-to-end benchmark calls it.
func (r *Replica) Close() {}
