package serve

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"gnnmark/internal/tensor"
)

// fakeModel serves embeddings with an analytic cost model — fixed per-batch
// overhead plus linear per-request work — so batching-policy behavior can be
// asserted exactly without a simulated device.
type fakeModel struct {
	clock  float64
	fixed  float64 // per-batch seconds (launch overheads, copies)
	perReq float64 // per-request seconds
	items  int
	dim    int
}

func (m *fakeModel) ServeEmbed(ids []int32) *tensor.Tensor {
	m.clock += m.fixed + m.perReq*float64(len(ids))
	out := tensor.New(len(ids), m.dim)
	for i, id := range ids {
		out.Row(i)[0] = float32(id)
	}
	return out
}

func (m *fakeModel) NumItems() int     { return m.items }
func (m *fakeModel) MarkHostBoundary() {}

func fakeReplicas(n int, fixed, perReq float64) []*Replica {
	reps := make([]*Replica, n)
	for r := 0; r < n; r++ {
		m := &fakeModel{fixed: fixed, perReq: perReq, items: 100, dim: 4}
		reps[r] = NewReplica(r, m, func() float64 { return m.clock })
	}
	return reps
}

func TestServerBatchesUnderfullAtMaxWait(t *testing.T) {
	reps := fakeReplicas(1, 0.001, 0.0001)
	s := New(Config{Endpoint: "t1", MaxBatch: 8, MaxWaitSeconds: 0.005}, reps)
	src := NewSliceSource([]Request{
		{Time: 0.000, Item: 1},
		{Time: 0.001, Item: 2},
	})
	st, err := s.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 1 || st.Completed != 2 {
		t.Fatalf("batches %d completed %d, want 1 batch of 2", st.Batches, st.Completed)
	}
	// Dispatch at 0.005 (oldest + window), cost 0.001 + 2*0.0001.
	wantDone := 0.005 + 0.0012
	if math.Abs(st.Makespan-wantDone) > 1e-12 {
		t.Fatalf("makespan %v, want %v", st.Makespan, wantDone)
	}
	// First request waited the whole window; p99 is its latency.
	if math.Abs(st.P99-(wantDone-0)) > 1e-12 {
		t.Fatalf("p99 %v, want %v", st.P99, wantDone)
	}
}

func TestServerFullBatchDispatchesEarly(t *testing.T) {
	reps := fakeReplicas(1, 0.001, 0.0001)
	s := New(Config{Endpoint: "t2", MaxBatch: 2, MaxWaitSeconds: 1.0}, reps)
	src := NewSliceSource([]Request{
		{Time: 0.000, Item: 1},
		{Time: 0.001, Item: 2},
		{Time: 0.002, Item: 3},
	})
	st, err := s.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	// The second arrival fills the first batch at t=0.001 — long before the
	// 1s window — and the third dispatches once the replica frees.
	if st.Batches != 2 {
		t.Fatalf("batches = %d, want 2", st.Batches)
	}
	if st.P50 >= 1.0 {
		t.Fatalf("p50 %v: full batches did not dispatch early", st.P50)
	}
}

func TestServerOverloadRejectsTyped(t *testing.T) {
	q := NewAdmissionQueue(2)
	if err := q.Push(Request{}); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(Request{}); err != nil {
		t.Fatal(err)
	}
	err := q.Push(Request{})
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("overflow push error = %v, want *OverloadError", err)
	}
	if oe.Depth != 2 || oe.Cap != 2 {
		t.Fatalf("OverloadError = %+v", oe)
	}

	// End to end: a slow replica and a tight queue under a fast open trace
	// must reject, and accounting must balance.
	reps := fakeReplicas(1, 0.010, 0.001)
	s := New(Config{Endpoint: "t3", MaxBatch: 4, MaxWaitSeconds: 0.001, QueueCap: 4}, reps)
	var reqs []Request
	for i := 0; i < 100; i++ {
		reqs = append(reqs, Request{Time: float64(i) * 0.0005, Item: int32(i % 10)})
	}
	st, err := s.Run(NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Fatal("no rejections under overload")
	}
	if st.Completed+st.Rejected != st.Arrived {
		t.Fatalf("accounting: %d completed + %d rejected != %d arrived",
			st.Completed, st.Rejected, st.Arrived)
	}
	if st.MaxQueueDepth != 4 {
		t.Fatalf("max queue depth %d, want cap 4", st.MaxQueueDepth)
	}
}

func TestServerCacheHitsSkipCompute(t *testing.T) {
	run := func(cacheRows int) Stats {
		reps := fakeReplicas(1, 0.001, 0.0001)
		s := New(Config{Endpoint: "t4", MaxBatch: 4, MaxWaitSeconds: 0.0005, CacheRows: cacheRows}, reps)
		var reqs []Request
		for i := 0; i < 60; i++ {
			reqs = append(reqs, Request{Time: float64(i) * 0.01, Item: int32(i % 3)})
		}
		st, err := s.Run(NewSliceSource(reqs))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cold := run(0)
	warm := run(16)
	if warm.CacheHits == 0 {
		t.Fatal("no cache hits on a repeating trace")
	}
	if warm.HitRate() < 0.5 {
		t.Fatalf("hit rate %v, want > 0.5 for 3 hot items", warm.HitRate())
	}
	if warm.MeanDeviceSeconds >= cold.MeanDeviceSeconds {
		t.Fatalf("cache did not reduce mean device time: %v vs %v",
			warm.MeanDeviceSeconds, cold.MeanDeviceSeconds)
	}
	if cold.CacheHits != 0 || cold.CacheMisses != 0 {
		t.Fatalf("cacheless run counted lookups: %+v", cold)
	}
}

func TestServerMultiReplicaOverlapsInSimTime(t *testing.T) {
	run := func(replicas int) Stats {
		reps := fakeReplicas(replicas, 0.010, 0)
		s := New(Config{Endpoint: "t5", MaxBatch: 1}, reps)
		var reqs []Request
		for i := 0; i < 8; i++ {
			reqs = append(reqs, Request{Time: float64(i) * 0.001, Item: int32(i)})
		}
		st, err := s.Run(NewSliceSource(reqs))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	one, four := run(1), run(4)
	if four.Makespan >= one.Makespan {
		t.Fatalf("4 replicas no faster than 1: %v vs %v", four.Makespan, one.Makespan)
	}
	if four.Completed != one.Completed {
		t.Fatalf("completed %d vs %d", four.Completed, one.Completed)
	}
}

func TestServerDeterministic(t *testing.T) {
	run := func() (Stats, []float32) {
		reps := fakeReplicas(2, 0.002, 0.0002)
		s := New(Config{Endpoint: "t6", MaxBatch: 8, MaxWaitSeconds: 0.001, QueueCap: 16, CacheRows: 8}, reps)
		st, err := s.Run(NewSliceSource(OpenArrivals(LoadConfig{Seed: 5, QPS: 3000, Duration: 0.5, Items: 40})))
		if err != nil {
			t.Fatal(err)
		}
		return st, nil
	}
	a, _ := run()
	b, _ := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reruns diverged:\n%+v\n%+v", a, b)
	}
	if a.Completed == 0 || a.QPS == 0 {
		t.Fatalf("run served nothing: %+v", a)
	}
}

func TestReplicaPanicBecomesError(t *testing.T) {
	m := &fakeModel{items: 10, dim: 2}
	r := NewReplica(0, panicModel{m}, func() float64 { return m.clock })
	s := New(Config{Endpoint: "t7", MaxBatch: 1}, []*Replica{r})
	_, err := s.Run(NewSliceSource([]Request{{Time: 0, Item: 1}}))
	if err == nil {
		t.Fatal("model panic did not surface as an error")
	}
}

type panicModel struct{ *fakeModel }

func (panicModel) ServeEmbed([]int32) *tensor.Tensor { panic("corrupt id") }
