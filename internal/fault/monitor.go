package fault

import "sync"

// Monitor is one device's live view of its slot's schedule. It implements
// the gpu.Device health hook: the device polls it with the device clock
// before every kernel launch and host-device copy, and the monitor answers
// with the current slowdown multipliers and (in immediate mode) the first
// due fatal event.
//
// Two consumption modes exist:
//
//   - Immediate (deferred = false): Poll surfaces a due fatal event as a
//     *FatalError; the device panics with it at the Launch, aborting the
//     rank mid-epoch. Single-device and partitioned runs use this — the
//     "clean, named abort" arm of the chaos matrix.
//   - Deferred (deferred = true): Poll applies degraded effects only and
//     never fails; the elastic DDP leader instead queries FatalBy at
//     gradient barriers, where every rank's simulated clock is a
//     deterministic value — so the set of dead ranks per iteration is a
//     pure function of the schedule, never of goroutine interleaving.
//
// All clock arguments are local device seconds; the monitor adds its fleet
// origin (the fleet time at which the current round started) so schedules
// written in fleet time survive elastic restarts that reset device clocks.
type Monitor struct {
	mu       sync.Mutex
	events   []Event // sorted by (At, slot, type)
	origin   float64
	deferred bool
}

// NewMonitor builds a monitor over the slot's events. deferred selects the
// consumption mode (see the type comment).
func NewMonitor(events []Event, deferred bool) *Monitor {
	own := make([]Event, len(events))
	copy(own, events)
	sortEvents(own)
	return &Monitor{events: own, deferred: deferred}
}

// SetOrigin installs the fleet time the device's local clock zero maps to.
func (m *Monitor) SetOrigin(t float64) {
	m.mu.Lock()
	m.origin = t
	m.mu.Unlock()
}

// Origin returns the monitor's fleet origin.
func (m *Monitor) Origin() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.origin
}

// Poll implements the gpu health hook: it reports the kernel and transfer
// slowdown multipliers active at local time now, and in immediate mode the
// first due fatal event as a *FatalError (the device panics with it).
func (m *Monitor) Poll(now float64) (kernelMult, transferMult float64, fatal error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ft := m.origin + now
	kernelMult, transferMult = m.multipliers(ft)
	if m.deferred {
		return kernelMult, transferMult, nil
	}
	if ev := m.fatalBy(ft); ev != nil {
		return kernelMult, transferMult, &FatalError{Event: *ev}
	}
	return kernelMult, transferMult, nil
}

// multipliers computes the worst active slowdown factors at fleet time ft.
// Thermal throttle slows kernels and transfers alike (the SM and copy
// engines share the clamped clock domain); NVLink degradation slows
// transfers only. Callers hold m.mu.
func (m *Monitor) multipliers(ft float64) (kernel, transfer float64) {
	kernel = m.worst(ThermalThrottle, ft)
	return kernel, kernel * m.worst(NVLinkDegrade, ft)
}

// worst returns the largest slowdown of type t active at fleet time ft
// (>= 1). Callers hold m.mu.
func (m *Monitor) worst(t EventType, ft float64) float64 {
	f := 1.0
	for _, e := range m.events {
		if e.At > ft {
			break
		}
		if e.Type == t {
			f = max(f, e.factor())
		}
	}
	return f
}

// fatalBy returns the first fatal event due at fleet time ft (callers hold
// m.mu).
func (m *Monitor) fatalBy(ft float64) *Event {
	for i := range m.events {
		if m.events[i].At > ft {
			break
		}
		if m.events[i].Severity() == Fatal {
			return &m.events[i]
		}
	}
	return nil
}

// FatalBy returns the first fatal event due at fleet time ft — a pure
// query of the schedule, independent of what Poll has seen. The elastic
// leader calls it with origin + rank-clock-at-barrier, which is
// deterministic across reruns.
func (m *Monitor) FatalBy(ft float64) *Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fatalBy(ft)
}

// LinkFactorBy returns the worst NVLink slowdown active at fleet time ft
// (>= 1). The elastic leader derates ring-allreduce bandwidth by the worst
// factor across ranks: the ring crosses every replica's links.
func (m *Monitor) LinkFactorBy(ft float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.worst(NVLinkDegrade, ft)
}
