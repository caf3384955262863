package fault

import (
	"fmt"
	"math/rand"
)

// Injector accumulates a fleet's health-event schedule through *At-style
// injection calls (Navarch's Injectable manager idiom): every event carries
// an explicit simulated timestamp, so a test's chaos scenario is a value,
// not a side effect of wall-clock timing. Build the schedule up front,
// then hand per-slot views to monitors with Schedule.
type Injector struct {
	events []Event
}

// InjectXIDAt schedules a fatal XID error against slot at fleet time t.
func (in *Injector) InjectXIDAt(slot, code int, msg string, t float64) {
	in.add(Event{Slot: slot, Type: XID, Code: code, Msg: msg, At: t})
}

// InjectECCAt schedules an ECC error: double = true is an uncorrectable
// DBE (fatal), false a corrected SBE (info).
func (in *Injector) InjectECCAt(slot int, double bool, msg string, t float64) {
	typ := ECCSBE
	if double {
		typ = ECCDBE
	}
	in.add(Event{Slot: slot, Type: typ, Msg: msg, At: t})
}

// InjectThermalAt schedules a thermal throttle: kernels and transfers on
// the slot slow by factor (0 = DefaultThermalFactor) from t onward.
func (in *Injector) InjectThermalAt(slot int, factor float64, t float64) {
	in.add(Event{Slot: slot, Type: ThermalThrottle, Factor: factor, At: t})
}

// InjectNVLinkAt schedules link degradation: collectives through the slot
// slow by factor (0 = DefaultNVLinkFactor) from t onward.
func (in *Injector) InjectNVLinkAt(slot int, factor float64, t float64) {
	in.add(Event{Slot: slot, Type: NVLinkDegrade, Factor: factor, At: t})
}

// InjectReplicaLossAt schedules the slot's whole replica dying at t.
func (in *Injector) InjectReplicaLossAt(slot int, msg string, t float64) {
	in.add(Event{Slot: slot, Type: ReplicaLoss, Msg: msg, At: t})
}

func (in *Injector) add(e Event) {
	if e.Slot < 0 {
		panic(fmt.Sprintf("fault: negative slot %d", e.Slot))
	}
	if e.At < 0 {
		panic(fmt.Sprintf("fault: negative timestamp %v", e.At))
	}
	in.events = append(in.events, e)
}

// Schedule returns the full schedule in deterministic order (time, slot,
// type). The returned slice is a copy.
func (in *Injector) Schedule() []Event {
	out := make([]Event, len(in.events))
	copy(out, in.events)
	sortEvents(out)
	return out
}

// SlotEvents filters a schedule down to one slot, preserving order.
func SlotEvents(sched []Event, slot int) []Event {
	var out []Event
	for _, e := range sched {
		if e.Slot == slot {
			out = append(out, e)
		}
	}
	return out
}

// ChurnConfig parameterizes a random chaos schedule.
type ChurnConfig struct {
	// Slots is the fleet size events are drawn against.
	Slots int
	// Horizon is the fleet-time window [0, Horizon) events land in.
	Horizon float64
	// Fatals is the number of fatal events (XID / ECC-DBE / replica loss,
	// drawn uniformly); at most Slots-1 distinct slots are killed so the
	// fleet always retains a survivor.
	Fatals int
	// Degraded is the number of degraded/info events (thermal, NVLink,
	// ECC-SBE, drawn uniformly) layered on top.
	Degraded int
}

// RandomSchedule draws a chaos schedule from seed. The draw is a pure
// function of (seed, cfg): identical inputs replay bitwise-identically
// (pinned by TestRandomSchedulePureFunction), which is what makes a whole
// chaos run reproducible end to end.
func RandomSchedule(seed int64, cfg ChurnConfig) []Event {
	if cfg.Slots < 1 {
		panic("fault: schedule needs at least one slot")
	}
	rng := rand.New(rand.NewSource(seed))
	var in Injector

	maxFatals := cfg.Fatals
	if maxFatals > cfg.Slots-1 {
		maxFatals = cfg.Slots - 1
	}
	// Fatal events hit distinct slots: kill the same device twice and the
	// second event is dead weight. Draw a partial Fisher-Yates over slots.
	perm := rng.Perm(cfg.Slots)
	fatalKinds := []EventType{XID, ECCDBE, ReplicaLoss}
	for i := 0; i < maxFatals; i++ {
		t := rng.Float64() * cfg.Horizon
		switch fatalKinds[rng.Intn(len(fatalKinds))] {
		case XID:
			in.InjectXIDAt(perm[i], 79, "GPU has fallen off the bus", t)
		case ECCDBE:
			in.InjectECCAt(perm[i], true, "uncorrectable DBE", t)
		default:
			in.InjectReplicaLossAt(perm[i], "node preempted", t)
		}
	}
	for i := 0; i < cfg.Degraded; i++ {
		slot := rng.Intn(cfg.Slots)
		t := rng.Float64() * cfg.Horizon
		switch rng.Intn(3) {
		case 0:
			in.InjectThermalAt(slot, 1+0.5*rng.Float64(), t)
		case 1:
			in.InjectNVLinkAt(slot, 1.5+rng.Float64(), t)
		default:
			in.InjectECCAt(slot, false, "corrected SBE", t)
		}
	}
	return in.Schedule()
}
