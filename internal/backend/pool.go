package backend

import (
	"runtime"
	"sync"

	"gnnmark/internal/obs"
)

// poolMetrics are a backend's worker-pool handles in its run (nil without
// one): per-task wall time, the task and dispatch counts, and the serial
// fallbacks taken by kernels too small to amortize a dispatch.
type poolMetrics struct {
	taskNanos                     *obs.Histogram
	tasks, dispatches, inlineRuns *obs.Counter
}

func newPoolMetrics(run *obs.Run) poolMetrics {
	return poolMetrics{run.Histogram("backend.task_nanos", obs.DurationBuckets()), run.Counter("backend.tasks_total"),
		run.Counter("backend.dispatches_total"), run.Counter("backend.inline_runs_total")}
}

// runTask executes one chunk, timing it when there is a run to record into.
func (m poolMetrics) runTask(f func(lo, hi int), lo, hi int) {
	if m.tasks == nil {
		f(lo, hi)
		return
	}
	start := obs.Nanos()
	f(lo, hi)
	m.taskNanos.Observe(obs.Nanos() - start)
	m.tasks.Inc()
}

// The parallel backend dispatches onto one process-wide worker pool:
// workers are started lazily on first use, sized to runtime.GOMAXPROCS, and
// live for the process lifetime, so a kernel launch costs one channel send
// per tile instead of a goroutine spawn. Multiple engines (DDP replicas,
// per-request engines) share the pool rather than oversubscribing the host.

type poolTask struct {
	f      func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
	m      poolMetrics // the dispatcher's: a task records into its run
}

var (
	poolOnce  sync.Once
	poolSize  int
	poolTasks chan poolTask
)

func startPool() {
	poolSize = runtime.GOMAXPROCS(0)
	poolTasks = make(chan poolTask, 8*poolSize)
	for i := 0; i < poolSize; i++ {
		go func() {
			for t := range poolTasks {
				t.m.runTask(t.f, t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
}

// minParallelWork is the per-kernel work floor (in multiply/element units)
// below which parallel kernels take the serial path: a pool dispatch costs
// a few microseconds, which must not be charged to Tree-LSTM-sized ops.
const minParallelWork = 1 << 15

// parallelFor splits [0,n) into one contiguous chunk per worker and runs f
// over the chunks on the shared pool; the calling goroutine executes the
// final chunk itself, so the pool is never a hard dependency. f must
// tolerate concurrent invocations on disjoint ranges. Kernel tasks never
// submit nested parallelFor calls, so pool workers cannot deadlock. The
// dispatch and its tasks record into be's run.
func (be cpuBackend) parallelFor(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	poolOnce.Do(startPool)
	chunks := poolSize
	if chunks > n {
		chunks = n
	}
	if chunks <= 1 {
		be.m.inlineRuns.Inc()
		f(0, n)
		return
	}
	be.m.dispatches.Inc()
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	lo := 0
	for lo+size < n {
		wg.Add(1)
		poolTasks <- poolTask{f: f, lo: lo, hi: lo + size, wg: &wg, m: be.m}
		lo += size
	}
	be.m.runTask(f, lo, n)
	wg.Wait()
}
