package scenario

import (
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnnmark/internal/obs"
)

// countMetrics is what an Outcome's run counted, by name: every counter and
// gauge whose name lacks "nanos" (the host-clock ones vary run to run) and
// every histogram's observation count. vmem.peak_bytes is left out: it is
// the high-water mark of the live bytes summed over the run's devices, and
// under DDP the replicas' goroutines reach their own peaks at instants the
// host scheduler picks, so it differs between two executions of one
// scenario alone (ddp-clean: 33.84 to 33.98 MB over six).
func countMetrics(o *Outcome) map[string]int64 {
	out := map[string]int64{}
	for _, c := range o.Metrics.Counters {
		if !strings.Contains(c.Name, "nanos") {
			out[c.Name] = c.Value
		}
	}
	for _, g := range o.Metrics.Gauges {
		if !strings.Contains(g.Name, "nanos") && g.Name != "vmem.peak_bytes" {
			out[g.Name] = g.Value
		}
	}
	for _, h := range o.Metrics.Histograms {
		out[h.Name+" count"] = h.Count
	}
	return out
}

// TestConcurrentExecutionsKeepTheirMetrics: every execution records into its
// own run, so two scenarios executed at once in one process each report what
// they report alone — the same digest and the same counts — and neither sees
// a plane only the other runs (the partitioned scenario counts no DDP
// all-reduce).
func TestConcurrentExecutionsKeepTheirMetrics(t *testing.T) {
	var scs []*Scenario
	for _, name := range []string{"ddp-clean", "partitioned-overlap"} {
		sc, err := ParseFile(filepath.Join("..", "..", "e2ebench", "scenarios", name+".yaml"))
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, sc)
	}
	solo := make([]*Outcome, len(scs))
	for i, sc := range scs {
		out, err := Execute(sc)
		if err != nil {
			t.Fatalf("%s alone: %v", sc.Name, err)
		}
		solo[i] = out
	}
	together := make([]*Outcome, len(scs))
	errs := make([]error, len(scs))
	var wg sync.WaitGroup
	for i, sc := range scs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], errs[i] = Execute(sc)
		}()
	}
	wg.Wait()
	for i, sc := range scs {
		if errs[i] != nil {
			t.Fatalf("%s concurrently: %v", sc.Name, errs[i])
		}
		if together[i].Digest != solo[i].Digest {
			t.Errorf("%s: digest %s concurrently, %s alone", sc.Name, together[i].Digest, solo[i].Digest)
		}
		want, got := countMetrics(solo[i]), countMetrics(together[i])
		if len(want) == 0 {
			t.Fatalf("%s recorded no metric", sc.Name)
		}
		t.Logf("%s: %d counts compared", sc.Name, len(want))
		for name, v := range want {
			if got[name] != v {
				t.Errorf("%s: %s = %d concurrently, %d alone", sc.Name, name, got[name], v)
			}
		}
		for name, v := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: %s = %d concurrently, not recorded alone", sc.Name, name, v)
			}
		}
	}
	if _, ok := countMetrics(solo[1])["ddp.allreduce_bytes_total"]; ok {
		t.Error("partitioned-overlap counts DDP all-reduce bytes")
	}
}

// TestFinishedRunLeavesNothingBehind: an execution's tracks and spans live
// in its run, and nothing holds the run or a track once the execution
// returns — not the Outcome, whose metrics are a snapshot, and not a
// process-global list. Executed again and again, a scenario leaves nothing
// behind, and the process-global run stays off and empty.
func TestFinishedRunLeavesNothingBehind(t *testing.T) {
	sc := mustParse(t, singleBase)
	var outs []*Outcome // kept: an Outcome must not pin its run
	for i := 0; i < 3; i++ {
		run := obs.NewRun()
		out, err := sc.execute(run)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
		tracks := run.Tracks()
		if len(tracks) == 0 || len(tracks[0].Spans) == 0 {
			t.Fatal("the execution recorded no span into its run")
		}
		// The run and every track it registered must be garbage once only
		// this test refers to them: finalizers count them down.
		var live atomic.Int64
		registered := reflect.ValueOf(run).Elem().FieldByName("tracks")
		for j := 0; j < registered.Len(); j++ {
			live.Add(1)
			runtime.SetFinalizer((*obs.Track)(registered.Index(j).UnsafePointer()), func(*obs.Track) { live.Add(-1) })
		}
		live.Add(1)
		runtime.SetFinalizer(run, func(*obs.Run) { live.Add(-1) })
		run, registered = nil, reflect.Value{}
		for gcs := 0; live.Load() > 0; gcs++ {
			if gcs == 100 {
				t.Fatalf("execution %d: %d of its run and %d tracks outlive it", i+1, live.Load(), len(tracks))
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if obs.Process() != nil || obs.Process().Tracks() != nil {
			t.Fatal("an execution switched the process-global run on or recorded into it")
		}
	}
	if len(outs[2].Metrics.Counters) == 0 {
		t.Fatal("the Outcome kept no metric snapshot")
	}

	runType := reflect.TypeOf((*obs.Run)(nil))
	seen := map[reflect.Type]bool{}
	var holds func(reflect.Type) bool
	holds = func(typ reflect.Type) bool {
		if typ == runType || seen[typ] {
			return typ == runType
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map, reflect.Chan:
			return holds(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if holds(typ.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	if holds(reflect.TypeOf(Outcome{})) {
		t.Fatal("an Outcome can hold an *obs.Run")
	}
}
