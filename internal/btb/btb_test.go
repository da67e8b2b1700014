package btb

import (
	"testing"
	"testing/quick"

	"zbp/internal/sat"
	"zbp/internal/zarch"
)

var testGeo = Geometry{RowBits: 11, Ways: 8, TagBits: 16, LineShift: 6}

func info(addr zarch.Addr) Info {
	return Info{Addr: addr, Len: 4, Kind: zarch.KindCondRel,
		Target: addr + 0x40, BHT: sat.WeakT, Skoot: SkootUnknown}
}

func TestGeometry(t *testing.T) {
	if testGeo.Rows() != 2048 || testGeo.Capacity() != 16384 || testGeo.LineBytes() != 64 {
		t.Fatalf("z15 geometry wrong: %d rows, %d cap", testGeo.Rows(), testGeo.Capacity())
	}
	if testGeo.Line(0x12345) != 0x12340 {
		t.Errorf("Line = %s", testGeo.Line(0x12345))
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid geometry")
		}
	}()
	New(Geometry{})
}

func TestInstallSearchLine(t *testing.T) {
	tb := New(testGeo)
	a1, a2 := zarch.Addr(0x10008), zarch.Addr(0x10030)
	tb.Install(info(a1))
	tb.Install(info(a2))
	hits := tb.SearchLine(0x10000)
	if len(hits) != 2 {
		t.Fatalf("hits = %d", len(hits))
	}
	if hits[0].Addr != a1 || hits[1].Addr != a2 {
		t.Errorf("hit order: %s, %s", hits[0].Addr, hits[1].Addr)
	}
	if hits[0].Aliased || hits[1].Aliased {
		t.Error("unexpected aliasing")
	}
	// Other lines see nothing.
	if got := tb.SearchLine(0x20000); len(got) != 0 {
		t.Errorf("foreign line hits = %d", len(got))
	}
}

func TestSearchLineNormalizesAddr(t *testing.T) {
	tb := New(testGeo)
	tb.Install(info(0x10008))
	// Searching mid-line must behave as searching the line base.
	hits := tb.SearchLine(0x10020)
	if len(hits) != 1 || hits[0].Addr != 0x10008 {
		t.Fatalf("mid-line search: %+v", hits)
	}
}

func TestInstallDedup(t *testing.T) {
	tb := New(testGeo)
	tb.Install(info(0x10008))
	i2 := info(0x10008)
	i2.Target = 0x99900
	if _, ev := tb.Install(i2); ev {
		t.Error("duplicate install evicted")
	}
	got, ok := tb.Lookup(0x10008)
	if !ok || got.Target != 0x99900 {
		t.Errorf("payload not replaced: %+v ok=%v", got, ok)
	}
	if tb.Stats().Updates != 1 {
		t.Errorf("Updates = %d", tb.Stats().Updates)
	}
	if tb.Occupancy() != 1 {
		t.Errorf("occupancy = %d", tb.Occupancy())
	}
}

func TestEvictionLRU(t *testing.T) {
	geo := Geometry{RowBits: 4, Ways: 2, TagBits: 16, LineShift: 6}
	tb := New(geo)
	// Three branches in the same row (line stride = rows*linebytes).
	stride := zarch.Addr(geo.Rows() * geo.LineBytes())
	a, b, c := zarch.Addr(0x10000), zarch.Addr(0x10000)+stride, zarch.Addr(0x10000)+2*stride
	tb.Install(info(a))
	tb.Install(info(b))
	// Touch a so b becomes LRU.
	tb.SearchLine(a)
	victim, ev := tb.Install(info(c))
	if !ev {
		t.Fatal("no eviction from full row")
	}
	if victim.Addr != b {
		t.Errorf("victim = %s, want %s", victim.Addr, b)
	}
	if _, ok := tb.Lookup(a); !ok {
		t.Error("recently used entry evicted")
	}
}

func TestPartialTagAliasing(t *testing.T) {
	// With a tiny tag, two different lines mapping to the same row and
	// tag must alias, and the hit must report the searched address.
	geo := Geometry{RowBits: 2, Ways: 2, TagBits: 1, LineShift: 6}
	tb := New(geo)
	base := zarch.Addr(0x10008)
	tb.Install(info(base))
	found := false
	stride := zarch.Addr(geo.Rows() * geo.LineBytes())
	for k := zarch.Addr(1); k < 64 && !found; k++ {
		line := (base + k*stride).Line64()
		hits := tb.SearchLine(line)
		for _, h := range hits {
			if h.Aliased {
				if h.Addr.Line64() != line {
					t.Fatalf("aliased hit reports %s outside searched line %s", h.Addr, line)
				}
				found = true
			}
		}
	}
	if !found {
		t.Error("no aliasing with 1-bit tags; partial tagging is not modeled")
	}
	if tb.Stats().AliasedHits == 0 {
		t.Error("AliasedHits not counted")
	}
}

func TestUpdateInvalidate(t *testing.T) {
	tb := New(testGeo)
	tb.Install(info(0x10008))
	if !tb.Update(0x10008, func(i *Info) { i.Bidirectional = true }) {
		t.Fatal("Update missed existing entry")
	}
	got, _ := tb.Lookup(0x10008)
	if !got.Bidirectional {
		t.Error("Update not applied")
	}
	if tb.Update(0x55500, func(*Info) {}) {
		t.Error("Update hit a missing entry")
	}
	if !tb.Invalidate(0x10008) {
		t.Fatal("Invalidate missed")
	}
	if _, ok := tb.Lookup(0x10008); ok {
		t.Error("entry survived Invalidate")
	}
	if tb.Invalidate(0x10008) {
		t.Error("double Invalidate succeeded")
	}
}

func TestLRUVictimOnlyWhenFull(t *testing.T) {
	geo := Geometry{RowBits: 4, Ways: 2, TagBits: 16, LineShift: 6}
	tb := New(geo)
	a := zarch.Addr(0x10000)
	tb.Install(info(a))
	if _, ok := tb.LRUVictim(a); ok {
		t.Error("LRUVictim on non-full row")
	}
	stride := zarch.Addr(geo.Rows() * geo.LineBytes())
	tb.Install(info(a + stride))
	tb.SearchLine(a + stride) // make the second entry MRU
	v, ok := tb.LRUVictim(a)
	if !ok || v.Addr != a {
		t.Errorf("LRUVictim = %+v, %v", v, ok)
	}
}

func TestSearchRegion(t *testing.T) {
	tb := New(testGeo)
	for i := 0; i < 10; i++ {
		tb.Install(info(zarch.Addr(0x40000 + i*0x40)))
	}
	got := tb.SearchRegion(0x40000, 5, 128)
	if len(got) != 5 {
		t.Fatalf("region found %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Addr <= got[i-1].Addr {
			t.Fatal("region not sorted")
		}
	}
	capped := tb.SearchRegion(0x40000, 10, 3)
	if len(capped) != 3 {
		t.Errorf("maxBranches not honored: %d", len(capped))
	}
}

func TestResetAndOccupancy(t *testing.T) {
	tb := New(testGeo)
	for i := 0; i < 100; i++ {
		tb.Install(info(zarch.Addr(0x10000 + i*0x40)))
	}
	if tb.Occupancy() != 100 {
		t.Errorf("occupancy = %d", tb.Occupancy())
	}
	tb.Reset(testGeo)
	if tb.Occupancy() != 0 || tb.Stats().Installs != 0 {
		t.Error("Reset incomplete")
	}
}

// TestResetAcrossGeometries: a table reset down to a smaller geometry
// and back re-slices the storage it owns (no new columns) and then
// behaves exactly like a table built fresh for each geometry.
func TestResetAcrossGeometries(t *testing.T) {
	small := Geometry{RowBits: 4, Ways: 2, TagBits: 10, LineShift: 5}
	tb := New(testGeo)
	first := &tb.info[0]
	for _, geo := range []Geometry{small, testGeo, small} {
		for i := 0; i < 50; i++ {
			tb.Install(info(zarch.Addr(0x20000 + i*0x40)))
		}
		tb.SetObserver(func(Event) { t.Error("observer survived Reset") })
		tb.Reset(geo)
		if &tb.info[0] != first {
			t.Fatalf("Reset(%+v) reallocated a column that had the capacity", geo)
		}
		fresh := New(geo)
		for i := 0; i < 200; i++ {
			a := zarch.Addr(0x10000 + i*0x36)
			gv, ge := tb.Install(info(a))
			wv, we := fresh.Install(info(a))
			if gv != wv || ge != we {
				t.Fatalf("geometry %+v install %d: reset table evicted %v/%v, fresh %v/%v", geo, i, gv, ge, wv, we)
			}
		}
		if tb.Stats() != fresh.Stats() || tb.Occupancy() != fresh.Occupancy() {
			t.Errorf("geometry %+v: reset table stats %+v, fresh %+v", geo, tb.Stats(), fresh.Stats())
		}
	}
}

func TestInstallLookupProperty(t *testing.T) {
	// Installing then looking up (without interference) always hits and
	// round-trips the payload.
	tb := New(testGeo)
	f := func(raw uint64) bool {
		addr := zarch.Addr(raw&^1 | 0x1000)
		in := info(addr)
		tb.Install(in)
		got, ok := tb.Lookup(addr)
		return ok && got.Target == in.Target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPreloadBasics(t *testing.T) {
	p := NewPreload(4)
	p.Install(info(0x10008))
	p.Install(info(0x10030))
	hits := p.SearchLine(0x10000, 64)
	if len(hits) != 2 || hits[0].Addr != 0x10008 {
		t.Fatalf("BTBP search: %+v", hits)
	}
	got, ok := p.Promote(0x10008)
	if !ok || got.Addr != 0x10008 {
		t.Fatal("Promote failed")
	}
	if _, ok := p.Promote(0x10008); ok {
		t.Error("double Promote")
	}
	if p.Occupancy() != 1 {
		t.Errorf("occupancy = %d", p.Occupancy())
	}
}

func TestPreloadLRUReplacement(t *testing.T) {
	p := NewPreload(2)
	p.Install(info(0x100))
	p.Install(info(0x200))
	p.SearchLine(0x100, 64) // no LRU effect, but exercise
	p.Install(info(0x300))  // evicts LRU (0x100)
	if _, ok := p.Promote(0x100); ok {
		t.Error("LRU entry survived")
	}
	if _, ok := p.Promote(0x300); !ok {
		t.Error("new entry missing")
	}
}

func TestPreloadDedup(t *testing.T) {
	p := NewPreload(4)
	p.Install(info(0x100))
	i2 := info(0x100)
	i2.Target = 0x9000
	p.Install(i2)
	if p.Occupancy() != 1 {
		t.Errorf("dup install occupancy = %d", p.Occupancy())
	}
	got, _ := p.Promote(0x100)
	if got.Target != 0x9000 {
		t.Error("dup install did not update payload")
	}
}

func TestStageFIFO(t *testing.T) {
	s := NewStage(3)
	s.Push(info(0x100))
	s.Push(info(0x200))
	s.Push(info(0x300))
	s.Push(info(0x400)) // dropped
	if s.Drops() != 1 || s.Len() != 3 || s.Peak() != 3 {
		t.Fatalf("drops=%d len=%d peak=%d", s.Drops(), s.Len(), s.Peak())
	}
	got, ok := s.Pop()
	if !ok || got.Addr != 0x100 {
		t.Fatal("FIFO order broken")
	}
	s.Pop()
	s.Pop()
	if _, ok := s.Pop(); ok {
		t.Error("Pop on empty stage")
	}
}
