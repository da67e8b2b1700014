package reuse

import "testing"

func TestSliceReusesAndClears(t *testing.T) {
	s := Slice[int](nil, 8)
	if len(s) != 8 {
		t.Fatalf("len %d, want 8", len(s))
	}
	for i := range s {
		s[i] = i + 1
	}
	small := Slice(s, 4)
	if &small[0] != &s[0] {
		t.Error("shrinking reset allocated instead of re-slicing")
	}
	for i, v := range small {
		if v != 0 {
			t.Errorf("element %d = %d after reset, want 0", i, v)
		}
	}
	back := Slice(small, 8)
	if &back[0] != &s[0] {
		t.Error("regrowing within capacity allocated")
	}
	for i, v := range back {
		if v != 0 {
			t.Errorf("element %d = %d after regrow, want 0", i, v)
		}
	}
	if big := Slice(back, 16); len(big) != 16 || &big[0] == &s[0] {
		t.Error("growing beyond capacity must allocate a fresh array")
	}
	if n := testing.AllocsPerRun(10, func() { _ = Slice(s, 8) }); n != 0 {
		t.Errorf("reset within capacity allocates %v times, want 0", n)
	}
}

func TestStaleReusesWithoutClearing(t *testing.T) {
	s := Slice[int](nil, 8)
	for i := range s {
		s[i] = i + 1
	}
	small := Stale(s, 4)
	if &small[0] != &s[0] {
		t.Error("shrinking Stale allocated instead of re-slicing")
	}
	back := Stale(small, 8)
	for i, v := range back {
		if v != i+1 {
			t.Errorf("element %d = %d after Stale regrow, want the old %d", i, v, i+1)
		}
	}
	big := Stale(back, 16)
	if len(big) != 16 || &big[0] == &s[0] {
		t.Error("growing beyond capacity must allocate a fresh array")
	}
	for i, v := range big {
		if v != 0 {
			t.Errorf("element %d = %d in a freshly grown array, want 0", i, v)
		}
	}
	if n := testing.AllocsPerRun(10, func() { _ = Stale(s, 8) }); n != 0 {
		t.Errorf("Stale within capacity allocates %v times, want 0", n)
	}
}
