package transport

import (
	"testing"
)

// FuzzParseFaultPlan asserts the fault-plan loader never panics: arbitrary
// input either compiles to a valid plan or returns an error. Valid plans
// must additionally be installable and survive a probe operation.
func FuzzParseFaultPlan(f *testing.F) {
	f.Add([]byte(`{"seed": 7, "rules": [{"op": "read", "mode": "error", "prob": 0.05}]}`))
	f.Add([]byte(`{"rules": [{"op": "send", "medium": "shm", "mode": "delay", "prob": 1, "delay_us": 5}]}`))
	f.Add([]byte(`{"rules": [{"op": "call", "dst": 3, "mode": "drop", "from_op": 2, "to_op": 9, "max": 4}]}`))
	f.Add([]byte(`{"rules": [{"op": "any", "src": 0, "mode": "error", "prob": 1}]}`))
	f.Add([]byte(`{"rules": []}`))
	f.Add([]byte(`{"seed": -1}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"rules": [{"op": "read", "mode": "error", "prob": 1e309}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseFaultPlan(data)
		if err != nil {
			if p != nil {
				t.Fatalf("error %v returned alongside a plan", err)
			}
			return
		}
		if len(p.rules) == 0 {
			t.Fatalf("accepted plan has no rules")
		}
		// A parsed plan must be usable: install it and run one faultable
		// operation of every kind without panicking.
		f2 := testFuzzFabric(t)
		if err := f2.Endpoint(1).Expose(BufKey{Name: "b"}, 1); err != nil {
			t.Fatal(err)
		}
		f2.SetFaultPlan(p)
		m := Meter{Phase: "fuzz"}
		_ = f2.Endpoint(0).Send(1, 1, nil, m)
		_ = readOne(f2.Endpoint(0), 1, BufKey{Name: "b"}, m, 1, nil)
		_, _ = f2.Endpoint(0).Call(1, "missing", nil, m, 1, 1)
	})
}

func testFuzzFabric(t *testing.T) *Fabric {
	t.Helper()
	return testFabric(t, 1, 2)
}
