package circuit

import "testing"

// TestCornerDispatch drives every Corner through each switch over
// Corner. A member with no arm falls through to its switch's fallback,
// which prints "corner(?)" or repeats the nominal corner's answer, so
// the distinctness checks fail until every switch handles the member.
func TestCornerDispatch(t *testing.T) {
	names := make(map[string]Corner)
	cells := make(map[Cell3T1D]Corner)
	rets := make(map[float64]Corner)
	for c := Corner(0); c < numCorners; c++ {
		name := c.String()
		if name == "corner(?)" {
			t.Errorf("Corner(%d): String has no arm", int(c))
		}
		if prev, dup := names[name]; dup {
			t.Errorf("Corner(%d).String = %q, same as %v", int(c), name, prev)
		}
		names[name] = c
		cell := cornerCell3T1D(c)
		if prev, dup := cells[cell]; dup {
			t.Errorf("cornerCell3T1D(%v) = %+v, same as %v: missing arm?", c, cell, prev)
		}
		cells[cell] = c
		ret := STTRAMBackend.cornerRetention(c)
		if prev, dup := rets[ret]; dup {
			t.Errorf("STTRAM.cornerRetention(%v) = %g s, same as %v: missing arm?", c, ret, prev)
		}
		rets[ret] = c
	}
}

// TestPolicyKindDispatch drives every PolicyKind through String, the
// switch over PolicyKind in this package; internal/montecarlo's test of
// the same name covers the counter-step switch.
func TestPolicyKindDispatch(t *testing.T) {
	names := make(map[string]PolicyKind)
	for k := PolicyKind(0); k < NumPolicyKinds; k++ {
		name := k.String()
		if name == "policy(?)" {
			t.Errorf("PolicyKind(%d): String has no arm", int(k))
		}
		if prev, dup := names[name]; dup {
			t.Errorf("PolicyKind(%d).String = %q, same as %v", int(k), name, prev)
		}
		names[name] = k
	}
}
