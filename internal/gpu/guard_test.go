package gpu

import (
	"errors"
	"testing"

	"gnnmark/internal/fault"
	"gnnmark/internal/vmem"
)

// TestGuardReturnsWhatTheDeviceRaised: Guard hands back the very error the
// device raised — not a copy, not a wrap — and nil when nothing failed.
func TestGuardReturnsWhatTheDeviceRaised(t *testing.T) {
	if err := Guard(func() {}); err != nil {
		t.Fatalf("Guard on success = %v, want nil", err)
	}
	oom := &vmem.OOMError{Kernel: "k"}
	if err := Guard(func() { raise(oom) }); err != error(oom) {
		t.Fatalf("Guard = %v, want the raised *vmem.OOMError itself", err)
	}
	fatal := &fault.FatalError{Event: fault.Event{Type: fault.XID, Code: 79}}
	err := Guard(func() { raise(fatal) })
	var fe *fault.FatalError
	if !errors.As(err, &fe) || fe != fatal {
		t.Fatalf("Guard = %v, want the raised *fault.FatalError itself", err)
	}
}

// TestGuardRepanicsForeignValues: only a device raise is an error; a bug's
// panic, even one whose value is an error, keeps unwinding unchanged.
func TestGuardRepanicsForeignValues(t *testing.T) {
	for _, val := range []any{"boom", errors.New("boom"), &vmem.OOMError{}} {
		func() {
			defer func() {
				if r := recover(); r != val {
					t.Fatalf("recovered %v, want the foreign value %v back", r, val)
				}
			}()
			err := Guard(func() { panic(val) })
			t.Fatalf("Guard swallowed foreign panic %v as %v", val, err)
		}()
	}
}
