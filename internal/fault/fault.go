// Package fault is the injectable health-event plane of the simulated
// fleet, modeled on Navarch's Injectable GPU manager: XID errors, ECC
// single/double bit errors, thermal throttling, NVLink degradation, and
// whole-replica loss, scheduled deterministically against the simulated
// clock. Events are injected with *At-style timestamp control, so every
// chaos run is seeded and bitwise reproducible — the same schedule replays
// identically no matter how the host goroutines interleave.
//
// The package is dependency-free by design: gpu.Device consumes a Monitor
// through its own small Health interface (throttle multipliers, parked
// fatal errors), and the elastic DDP layer queries monitors at barrier
// points where every rank's simulated clock is deterministic.
package fault

import (
	"fmt"
	"sort"
)

// EventType enumerates the health events the fleet can suffer. The set
// mirrors the DCGM/XID taxonomy Navarch's health plane watches.
type EventType int

const (
	// XID is a driver-reported XID error (e.g. 79, "GPU has fallen off
	// the bus"). The simulated fleet only injects job-fatal XIDs.
	XID EventType = iota
	// ECCSBE is a corrected single-bit ECC error: logged, never fatal.
	ECCSBE
	// ECCDBE is an uncorrectable double-bit ECC error: the device's
	// memory is poisoned and the replica must be torn down.
	ECCDBE
	// ThermalThrottle clamps the SM clock: kernels and transfers slow by
	// the event's factor until the run ends, numerics untouched.
	ThermalThrottle
	// NVLinkDegrade reduces interconnect bandwidth through the device's
	// links: collectives and halo exchanges slow, numerics untouched.
	NVLinkDegrade
	// ReplicaLoss kills the whole replica process mid-epoch (node crash,
	// preemption): indistinguishable from a fatal device error to the
	// survivors.
	ReplicaLoss
)

// Default slowdown factors: a thermally capped V100 drops from boost to
// base clocks (~1.35x slower), and a degraded NVLink falls back to half
// width (2x slower).
const (
	DefaultThermalFactor = 1.35
	DefaultNVLinkFactor  = 2.0
)

// eventTypes is the taxonomy as data, indexed by EventType: the mnemonic
// scenario files and error messages use, the severity, and the slowdown a
// degraded type applies when its event names none (0 = the type never
// slows anything). The classification is pinned by TestSeverityTaxonomy;
// elastic recovery and the chaos harness both branch on it, so a type that
// drifted between fatal and degraded would corrupt recovery decisions.
var eventTypes = [...]struct {
	name     string
	severity Severity
	factor   float64
}{
	XID:             {"xid", Fatal, 0},
	ECCSBE:          {"ecc-sbe", Info, 0},
	ECCDBE:          {"ecc-dbe", Fatal, 0},
	ThermalThrottle: {"thermal-throttle", Degraded, DefaultThermalFactor},
	NVLinkDegrade:   {"nvlink-degrade", Degraded, DefaultNVLinkFactor},
	ReplicaLoss:     {"replica-loss", Fatal, 0},
}

// known reports whether t is a declared event type.
func (t EventType) known() bool { return t >= 0 && int(t) < len(eventTypes) }

// String returns the event type's mnemonic.
func (t EventType) String() string {
	if t.known() {
		return eventTypes[t].name
	}
	return fmt.Sprintf("event(%d)", int(t))
}

// Severity classifies an event's effect on the training job.
type Severity int

const (
	// Info events are logged and counted but change nothing.
	Info Severity = iota
	// Degraded events slow the device or its links without corrupting
	// state: the job limps on with identical numerics.
	Degraded
	// Fatal events end the replica: its state is unrecoverable and the
	// fleet must drop or replace it.
	Fatal
)

var severityNames = [...]string{Info: "info", Degraded: "degraded", Fatal: "fatal"}

// String returns the severity's name.
func (s Severity) String() string {
	if s >= 0 && int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Classify maps an event type to its severity; the mapping is total over
// the declared types.
func Classify(t EventType) Severity {
	if t.known() {
		return eventTypes[t].severity
	}
	panic(fmt.Sprintf("fault: unclassified event type %d", int(t)))
}

// Event is one scheduled health event against one fleet slot.
type Event struct {
	// Slot is the fleet position (original device index) the event hits.
	// Slots are stable across elastic re-sharding; replica rank indices
	// are not.
	Slot int
	// Type selects the failure mode; Severity() derives from it.
	Type EventType
	// At is the event's timestamp in fleet-simulated seconds: the event
	// fires when the slot's device clock (plus the fleet origin) passes it.
	At float64
	// Code is the XID code for XID events (0 otherwise).
	Code int
	// Factor is the slowdown multiplier (>= 1) for ThermalThrottle
	// (kernel + transfer time) and NVLinkDegrade (link time); 0 means the
	// type's default.
	Factor float64
	// Msg is the human-readable description carried into errors.
	Msg string
}

// Severity returns the event's classification.
func (e Event) Severity() Severity { return Classify(e.Type) }

// factor returns the effective slowdown multiplier, defaulting per type.
func (e Event) factor() float64 {
	if e.Factor > 1 {
		return e.Factor
	}
	if e.Type.known() && eventTypes[e.Type].factor > 0 {
		return eventTypes[e.Type].factor
	}
	return 1
}

// String renders the event for logs and error messages.
func (e Event) String() string {
	s := fmt.Sprintf("%s on slot %d at %.6fs", e.Type, e.Slot, e.At)
	if e.Type == XID {
		s = fmt.Sprintf("%s %d on slot %d at %.6fs", e.Type, e.Code, e.Slot, e.At)
	}
	if e.Msg != "" {
		s += " (" + e.Msg + ")"
	}
	return s
}

// FatalError is the error a fatal health event surfaces as: the simulated
// device panics with it at the next kernel launch (mirroring the parked
// vmem.OOMError protocol), or the elastic leader latches it at a barrier.
type FatalError struct {
	Event Event
}

// Error implements error with the event's full identity, so "a clean,
// named abort" names exactly what killed the rank.
func (f *FatalError) Error() string {
	return fmt.Sprintf("fault: fatal health event: %s", f.Event)
}

// sortEvents orders events deterministically: by timestamp, then slot,
// then type — a pure function of the schedule's content.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		if events[i].Slot != events[j].Slot {
			return events[i].Slot < events[j].Slot
		}
		return events[i].Type < events[j].Type
	})
}
