package btb

import (
	"zbp/internal/hashx"
	"zbp/internal/sat"
	"zbp/internal/zarch"
)

// Scribble fills every slot of the table that holds no valid entry
// with non-zero garbage derived from seed, across all four payload
// columns; valid entries and the valid column are left alone. It is a
// test aid for the write-before-read invariant (see Table): a table
// scribbled right after Reset must behave exactly as a fresh one, so
// a read that skips its valid check shows up as a divergence.
func (t *Table) Scribble(seed uint64) {
	for i, v := range t.valid {
		if v {
			continue
		}
		x := hashx.Mix(seed ^ uint64(i))
		t.tag[i] = uint32(x) | 1
		t.offset[i] = uint16(x>>32) | 1
		t.stamp[i] = x | 1
		t.info[i] = garbage(x)
	}
}

// Scribble fills every BTBP slot that holds no valid entry with
// non-zero garbage derived from seed (address, payload and stamp),
// leaving valid entries and the filter alone; see Table.Scribble.
func (p *Preload) Scribble(seed uint64) {
	for i, v := range p.valid {
		if v {
			continue
		}
		x := hashx.Mix(seed ^ uint64(i))
		p.info[i] = garbage(x)
		p.addr[i] = p.info[i].Addr
		p.stamp[i] = x | 1
	}
}

// garbage derives a non-zero Info, every field set, from x. The
// address lands in the low 4 MiB, where the synthetic workloads place
// their code, so a stale BTBP slot read without its valid check is
// likely to match a searched line.
func garbage(x uint64) Info {
	y := hashx.Mix(x)
	return Info{
		Addr:           zarch.Addr(y%(4<<20)) | 2,
		Len:            uint8(2 + 2*(x>>8%3)),
		Kind:           zarch.BranchKind(1 + x>>16%5),
		Target:         zarch.Addr(hashx.Mix(y)) | 2,
		BHT:            sat.Counter2(x>>24&3) | 1,
		Bidirectional:  true,
		MultiTarget:    true,
		IsReturn:       true,
		ReturnOffset:   uint8(2 * (1 + x>>32%4)),
		CRSBlacklisted: true,
		Skoot:          uint8(x>>40) | 1,
	}
}
