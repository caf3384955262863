package gpu

// failure is what a simulated device failure unwinds with. A kernel launch
// has no error return (ten model loops call it thousands of times an epoch),
// so the device raises by panicking with this private wrapper and Guard —
// the only place that can name the type — turns it back into the error.
type failure struct{ err error }

// Error makes a raise nobody guarded crash with the device's own report.
func (f failure) Error() string { return f.err.Error() }

// raise unwinds to the nearest Guard with err: a parked *vmem.OOMError
// (Launch) or the health plane's fatal error (pollHealth).
func raise(err error) { panic(failure{err}) }

// Guard runs f and returns the error a simulated device raised in it,
// unchanged (errors.As finds *vmem.OOMError and *fault.FatalError), or nil.
// A device that raised is dead and must not be launched on again. Any other
// panic — a bug, or exec.Abort unwinding a worker — keeps unwinding.
func Guard(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			fl, ok := r.(failure)
			if !ok {
				panic(r)
			}
			err = fl.err
		}
	}()
	f()
	return nil
}
