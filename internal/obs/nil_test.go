package obs

import (
	"io"
	"reflect"
	"testing"
)

// TestNilHandlesAreSafe calls every exported method of Counter, Gauge,
// Histogram, Track and Run on a nil receiver, with zero arguments (and a
// discarding writer): a nil *Run is observability off and hands out nil
// handles, so none of them may panic.
func TestNilHandlesAreSafe(t *testing.T) {
	writer := reflect.TypeOf((*io.Writer)(nil)).Elem()
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*Counter)(nil)), reflect.TypeOf((*Gauge)(nil)), reflect.TypeOf((*Histogram)(nil)),
		reflect.TypeOf((*Track)(nil)), reflect.TypeOf((*Run)(nil)),
	} {
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			args := []reflect.Value{reflect.Zero(typ)}
			for j := 1; j < m.Type.NumIn(); j++ {
				if in := m.Type.In(j); in == writer {
					args = append(args, reflect.ValueOf(io.Discard))
				} else {
					args = append(args, reflect.Zero(in))
				}
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("(%v).%s panics on a nil receiver: %v", typ, m.Name, r)
					}
				}()
				m.Func.Call(args)
			}()
		}
	}
}
