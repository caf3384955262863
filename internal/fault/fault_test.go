package fault

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// allEventTypes walks the EventType values in declaration order up to the
// first one String has no mnemonic for.
func allEventTypes() []EventType {
	var out []EventType
	for typ := EventType(0); !strings.HasPrefix(typ.String(), "event("); typ++ {
		out = append(out, typ)
	}
	return out
}

// TestSeverityTaxonomy: the classification is total (every event type maps
// to exactly one severity without panicking) and stable (the mapping is
// pinned, so a type cannot silently drift between fatal and degraded —
// elastic recovery branches on it).
func TestSeverityTaxonomy(t *testing.T) {
	want := map[EventType]Severity{
		XID:             Fatal,
		ECCDBE:          Fatal,
		ReplicaLoss:     Fatal,
		ThermalThrottle: Degraded,
		NVLinkDegrade:   Degraded,
		ECCSBE:          Info,
	}
	types := allEventTypes()
	if len(types) != len(want) {
		t.Fatalf("taxonomy has %d event types, pin covers %d — update the pin AND the recovery logic", len(types), len(want))
	}
	for _, typ := range types {
		sev := Classify(typ) // must not panic: totality
		pinned, ok := want[typ]
		if !ok {
			t.Fatalf("event type %v missing from the severity pin", typ)
		}
		if sev != pinned {
			t.Fatalf("Classify(%v) = %v, pinned %v", typ, sev, pinned)
		}
		if sev != Info && sev != Degraded && sev != Fatal {
			t.Fatalf("Classify(%v) = %d: not one of info/degraded/fatal", typ, sev)
		}
		if ev := (Event{Type: typ}); ev.Severity() != sev {
			t.Fatalf("Event.Severity disagrees with Classify for %v", typ)
		}
	}
}

// TestSeverityClassificationStable: classification depends only on the
// type — not on the slot, timestamp, code, or factor the event carries.
func TestSeverityClassificationStable(t *testing.T) {
	for _, typ := range allEventTypes() {
		base := Classify(typ)
		for i := 0; i < 50; i++ {
			ev := Event{
				Slot: i % 7, Type: typ, At: float64(i) * 0.37,
				Code: 31 + i, Factor: 1 + float64(i)/10,
			}
			if ev.Severity() != base {
				t.Fatalf("%v severity changed with payload: %v != %v", typ, ev.Severity(), base)
			}
		}
	}
}

// TestRandomSchedulePureFunction: identical (seed, config) inputs replay
// the schedule bitwise-identically; different seeds actually differ.
func TestRandomSchedulePureFunction(t *testing.T) {
	cfg := ChurnConfig{Slots: 8, Horizon: 2.0, Fatals: 3, Degraded: 5}
	for seed := int64(1); seed <= 20; seed++ {
		a := RandomSchedule(seed, cfg)
		b := RandomSchedule(seed, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedule not reproducible:\n%v\nvs\n%v", seed, a, b)
		}
	}
	if reflect.DeepEqual(RandomSchedule(1, cfg), RandomSchedule(2, cfg)) {
		t.Fatal("seeds 1 and 2 drew identical schedules — RNG not threaded through")
	}
}

// TestRandomScheduleInvariants: fatal draws hit distinct slots and never
// exhaust the fleet; all timestamps land inside the horizon; the schedule
// comes back sorted by (At, slot, type).
func TestRandomScheduleInvariants(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		cfg := ChurnConfig{Slots: 4, Horizon: 1.5, Fatals: 9, Degraded: 4}
		sched := RandomSchedule(seed, cfg)
		fatalSlots := map[int]bool{}
		for i, e := range sched {
			if e.At < 0 || e.At >= cfg.Horizon {
				t.Fatalf("seed %d: event %v outside horizon", seed, e)
			}
			if e.Slot < 0 || e.Slot >= cfg.Slots {
				t.Fatalf("seed %d: event %v outside fleet", seed, e)
			}
			if e.Severity() == Fatal {
				if fatalSlots[e.Slot] {
					t.Fatalf("seed %d: slot %d killed twice", seed, e.Slot)
				}
				fatalSlots[e.Slot] = true
			}
			if i > 0 && sched[i-1].At > e.At {
				t.Fatalf("seed %d: schedule unsorted at %d", seed, i)
			}
		}
		if len(fatalSlots) >= cfg.Slots {
			t.Fatalf("seed %d: every slot killed — no survivor", seed)
		}
	}
}

// TestInjectorAtOrdering: *At injections in any call order come back in
// deterministic (time, slot, type) order.
func TestInjectorAtOrdering(t *testing.T) {
	var in Injector
	in.InjectReplicaLossAt(2, "preempted", 0.9)
	in.InjectXIDAt(0, 79, "fallen off the bus", 0.5)
	in.InjectThermalAt(1, 1.4, 0.5)
	in.InjectECCAt(3, false, "sbe", 0.1)
	sched := in.Schedule()
	var got []string
	for _, e := range sched {
		got = append(got, fmt.Sprintf("%v@%.1f", e.Type, e.At))
	}
	want := []string{"ecc-sbe@0.1", "xid@0.5", "thermal-throttle@0.5", "replica-loss@0.9"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule order %v, want %v", got, want)
	}
	// Same-timestamp tie broke on slot: xid hit slot 0, thermal slot 1.
	if sched[1].Slot != 0 || sched[2].Slot != 1 {
		t.Fatalf("tie-break by slot violated: %v", sched)
	}
}

// TestMonitorModes: immediate mode surfaces a due fatal through Poll;
// deferred mode never does, but FatalBy still answers deterministically.
func TestMonitorModes(t *testing.T) {
	events := []Event{
		{Slot: 0, Type: ThermalThrottle, Factor: 1.5, At: 0.2},
		{Slot: 0, Type: NVLinkDegrade, Factor: 2.0, At: 0.4},
		{Slot: 0, Type: XID, Code: 79, At: 1.0},
	}

	imm := NewMonitor(events, false)
	k, x, fatal := imm.Poll(0.1)
	if k != 1 || x != 1 || fatal != nil {
		t.Fatalf("pre-event poll: k=%v x=%v fatal=%v", k, x, fatal)
	}
	k, x, fatal = imm.Poll(0.5)
	if k != 1.5 || x != 3.0 || fatal != nil {
		t.Fatalf("degraded poll: k=%v x=%v (want 1.5, 3.0) fatal=%v", k, x, fatal)
	}
	_, _, fatal = imm.Poll(1.2)
	fe, ok := fatal.(*FatalError)
	if !ok || fe.Event.Type != XID {
		t.Fatalf("fatal poll returned %v, want xid FatalError", fatal)
	}

	def := NewMonitor(events, true)
	if _, _, fatal := def.Poll(2.0); fatal != nil {
		t.Fatalf("deferred poll surfaced %v", fatal)
	}
	if ev := def.FatalBy(0.9); ev != nil {
		t.Fatalf("FatalBy(0.9) = %v, want nil", ev)
	}
	if ev := def.FatalBy(1.0); ev == nil || ev.Type != XID {
		t.Fatalf("FatalBy(1.0) = %v, want xid", ev)
	}
	if f := def.LinkFactorBy(0.5); f != 2.0 {
		t.Fatalf("LinkFactorBy = %v, want 2.0", f)
	}
}

// TestMonitorOrigin: schedules written in fleet time survive device-clock
// resets — the monitor's origin shifts local polls into fleet time.
func TestMonitorOrigin(t *testing.T) {
	m := NewMonitor([]Event{{Slot: 1, Type: ECCDBE, At: 5.0}}, false)
	m.SetOrigin(4.9)
	if _, _, fatal := m.Poll(0.05); fatal != nil {
		t.Fatalf("fleet 4.95: premature fatal %v", fatal)
	}
	if _, _, fatal := m.Poll(0.2); fatal == nil {
		t.Fatal("fleet 5.1: fatal not due")
	}
}

// TestMonitorCorrectedErrors: SBE events never fail or slow the device.
func TestMonitorCorrectedErrors(t *testing.T) {
	m := NewMonitor([]Event{
		{Slot: 0, Type: ECCSBE, At: 0.1},
		{Slot: 0, Type: ECCSBE, At: 0.3},
		{Slot: 0, Type: ECCSBE, At: 0.9},
	}, false)
	if k, x, fatal := m.Poll(1.0); k != 1 || x != 1 || fatal != nil {
		t.Fatalf("SBE poll: k=%v x=%v fatal=%v, want 1 1 <nil>", k, x, fatal)
	}
}
