package serve

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"gnnmark/internal/obs"
	"gnnmark/internal/tensor"
)

// Config is one endpoint's serving policy.
type Config struct {
	// Endpoint names the endpoint in metrics and reports.
	Endpoint string
	// MaxBatch is the micro-batch size cap (default 1: no batching).
	MaxBatch int
	// MaxWaitSeconds is the batching window: an underfull batch dispatches
	// once its oldest request has waited this long (0: dispatch as soon as
	// a replica is free).
	MaxWaitSeconds float64
	// QueueCap bounds the admission queue; arrivals beyond it are rejected
	// with OverloadError (0: unbounded).
	QueueCap int
	// CacheRows is the embedding-cache capacity in rows (0: no cache).
	CacheRows int
	// Obs is the run the server records into (nil: obs.Process()).
	Obs *obs.Run
}

// Stats is one endpoint's measured serving behavior over a Run.
type Stats struct {
	Arrived   int64
	Completed int64 // served (computed or cache hit)
	Rejected  int64 // admission overload

	CacheHits   int64
	CacheMisses int64

	Batches   int64
	MeanBatch float64 // mean requests per dispatched batch

	MaxQueueDepth int

	// Latency quantiles in simulated seconds, exact (computed from every
	// per-request latency, not bucketed).
	P50, P95, P99 float64
	MeanLatency   float64

	QPS float64 // completed / makespan

	DeviceSeconds     float64 // total device time across batches
	MeanDeviceSeconds float64 // per completed request

	Makespan float64 // last event's simulated time
}

// HitRate returns the cache hit fraction of lookups (0 with no cache).
func (s Stats) HitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// Server runs one endpoint: admission, micro-batching, replica dispatch,
// and completion accounting, all in simulated time.
type Server struct {
	cfg      Config
	replicas []*Replica
	freeAt   []float64
	queue    *AdmissionQueue
	cache    *EmbedCache

	arrivedC, completedC, rejectedC *obs.Counter
	hitsC, missesC                  *obs.Counter
	depthG                          *obs.Gauge
	batchH, latencyH                *obs.Histogram
}

// batchSizeBuckets buckets the dispatched micro-batch sizes.
var batchSizeBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128}

// New builds a server over the given replicas (at least one), which must
// already hold the frozen weights.
func New(cfg Config, replicas []*Replica) *Server {
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.MaxWaitSeconds < 0 {
		cfg.MaxWaitSeconds = 0
	}
	if cfg.Endpoint == "" {
		cfg.Endpoint = "default"
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.Process()
	}
	p, run := "serve."+cfg.Endpoint+".", cfg.Obs
	return &Server{
		cfg:        cfg,
		replicas:   replicas,
		freeAt:     make([]float64, len(replicas)),
		queue:      NewAdmissionQueue(cfg.QueueCap),
		cache:      NewEmbedCache(cfg.CacheRows),
		arrivedC:   run.Counter(p + "requests_total"),
		completedC: run.Counter(p + "completed_total"),
		rejectedC:  run.Counter(p + "rejected_total"),
		hitsC:      run.Counter(p + "cache.hits_total"),
		missesC:    run.Counter(p + "cache.misses_total"),
		depthG:     run.Gauge(p + "queue_depth_max"),
		batchH:     run.Histogram(p+"batch_size", batchSizeBuckets),
		latencyH:   run.Histogram(p+"latency_nanos", obs.DurationBuckets()),
	}
}

// inflightBatch is a dispatched micro-batch awaiting its completion event.
// Row i of emb belongs to reqs[i].
type inflightBatch struct {
	done float64
	seq  int // dispatch order, deterministic completion tie-break
	reqs []Request
	emb  *tensor.Tensor
}

type completionHeap []*inflightBatch

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].done != h[j].done {
		return h[i].done < h[j].done
	}
	return h[i].seq < h[j].seq
}
func (h completionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(*inflightBatch)) }
func (h *completionHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run drives the endpoint over every arrival src produces and returns the
// measured stats. The loop is a discrete-event simulation: completions,
// arrivals, and batch formations fire in simulated-time order (ties resolve
// completion, then arrival, then formation), so the outcome is a pure
// function of (weights, source, policy) — reruns are bit-identical.
func (s *Server) Run(src *SliceSource) (Stats, error) {
	var (
		comps     completionHeap
		latencies []float64
		st        Stats
		seq       int
	)
	record := func(lat float64) {
		latencies = append(latencies, lat)
		s.latencyH.Observe(int64(lat * 1e9))
		st.Completed++
		s.completedC.Inc()
	}

	const (
		evNone = iota
		evCompletion
		evArrival
		evFormation
	)
	for {
		ev, t := evNone, math.Inf(1)
		if len(comps) > 0 {
			ev, t = evCompletion, comps[0].done
		}
		if at, ok := src.Peek(); ok && at < t {
			ev, t = evArrival, at
		}
		if ft, ok := s.formationTime(); ok && ft < t {
			ev, t = evFormation, ft
		}
		if ev == evNone {
			break
		}
		if t > st.Makespan {
			st.Makespan = t
		}
		switch ev {
		case evCompletion:
			c := heap.Pop(&comps).(*inflightBatch)
			for i, req := range c.reqs {
				record(c.done - req.Time)
				s.cache.Put(req.Item, c.emb.Row(i))
			}
		case evArrival:
			req := src.Pop()
			st.Arrived++
			s.arrivedC.Inc()
			if row := s.cache.Get(req.Item); row != nil {
				// Hit: served at arrival, no queue, no device time.
				s.hitsC.Inc()
				record(0)
				continue
			}
			if s.cache != nil {
				s.missesC.Inc()
			}
			if err := s.queue.Push(req); err != nil {
				st.Rejected++
				s.rejectedC.Inc()
			}
		case evFormation:
			k := s.cfg.MaxBatch
			if n := s.queue.Len(); n < k {
				k = n
			}
			reqs := s.queue.Take(k)
			ids := make([]int32, k)
			for i, r := range reqs {
				ids[i] = r.Item
			}
			rank := s.earliestFree()
			emb, dev, err := s.replicas[rank].Serve(ids)
			if err != nil {
				return st, err
			}
			st.Batches++
			s.batchH.Observe(int64(k))
			st.DeviceSeconds += dev
			s.freeAt[rank] = t + dev
			heap.Push(&comps, &inflightBatch{done: t + dev, seq: seq, reqs: reqs, emb: emb})
			seq++
		}
	}

	if err := conserved(s.cfg.Endpoint, st, s.queue.Len(), len(comps)); err != nil {
		return st, err
	}
	st.CacheHits = s.cache.Hits()
	st.CacheMisses = s.cache.Misses()
	st.MaxQueueDepth = s.queue.MaxDepth()
	s.depthG.SetMax(int64(st.MaxQueueDepth))
	if st.Batches > 0 {
		st.MeanBatch = float64(st.Completed-st.CacheHits) / float64(st.Batches)
	}
	if st.Completed > 0 {
		st.MeanDeviceSeconds = st.DeviceSeconds / float64(st.Completed)
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		st.MeanLatency = sum / float64(len(latencies))
		sort.Float64s(latencies)
		st.P50 = exactQuantile(latencies, 0.50)
		st.P95 = exactQuantile(latencies, 0.95)
		st.P99 = exactQuantile(latencies, 0.99)
	}
	if st.Makespan > 0 {
		st.QPS = float64(st.Completed) / st.Makespan
	}
	return st, nil
}

// conserved is the serving plane's first law, checked when the event loop
// has run dry: every arrival was completed or rejected, and no request waits
// in the queue or rides a batch in flight.
func conserved(endpoint string, st Stats, queued, inflight int) error {
	if st.Arrived == st.Completed+st.Rejected && queued == 0 && inflight == 0 {
		return nil
	}
	return fmt.Errorf("serve: endpoint %s lost requests: %d arrived, %d completed + %d rejected, %d queued, %d batches in flight",
		endpoint, st.Arrived, st.Completed, st.Rejected, queued, inflight)
}

// formationTime returns the simulated time the next micro-batch should
// dispatch: never before a replica is free, and no earlier than the batch
// trigger — the MaxBatch-th oldest arrival when the queue can fill a batch,
// or the oldest arrival plus the batching window otherwise. Arrivals that
// land before the returned time are processed first (the loop recomputes),
// so a filling batch pulls its own trigger earlier.
func (s *Server) formationTime() (float64, bool) {
	n := s.queue.Len()
	if n == 0 {
		return 0, false
	}
	var t float64
	if n >= s.cfg.MaxBatch {
		t = s.queue.Peek(s.cfg.MaxBatch - 1).Time
	} else {
		t = s.queue.Peek(0).Time + s.cfg.MaxWaitSeconds
	}
	if free := s.freeAt[s.earliestFree()]; free > t {
		t = free
	}
	return t, true
}

// earliestFree returns the rank of the replica free soonest (lowest rank on
// ties — the deterministic scheduling order).
func (s *Server) earliestFree() int {
	best := 0
	for r := 1; r < len(s.freeAt); r++ {
		if s.freeAt[r] < s.freeAt[best] {
			best = r
		}
	}
	return best
}

// exactQuantile returns the nearest-rank q-quantile of sorted values.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
