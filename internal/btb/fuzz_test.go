package btb

import (
	"math/rand/v2"
	"testing"

	"zbp/internal/sat"
	"zbp/internal/zarch"
)

// refPreload is the linear-scan BTBP the filtered, column-wise Preload
// replaced: one array of structs, a full scan per search, cleared
// entirely by Reset. FuzzPreloadOps holds Preload to it op for op.
type refPreload struct {
	entries []refPentry
	tick    uint64
	stats   PreloadStats
}

type refPentry struct {
	valid bool
	info  Info
	stamp uint64
}

func (p *refPreload) Reset(capacity int) {
	*p = refPreload{entries: make([]refPentry, capacity)}
}

func (p *refPreload) Install(info Info) (victim Info, evicted bool) {
	p.stats.Installs++
	p.tick++
	lru := 0
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.info.Addr == info.Addr {
			e.info = info
			e.stamp = p.tick
			return Info{}, false
		}
		if !e.valid {
			*e = refPentry{valid: true, info: info, stamp: p.tick}
			return Info{}, false
		}
		if e.stamp < p.entries[lru].stamp {
			lru = i
		}
	}
	victim = p.entries[lru].info
	p.entries[lru] = refPentry{valid: true, info: info, stamp: p.tick}
	return victim, true
}

func (p *refPreload) SearchLine(line zarch.Addr, lineBytes int) []Info {
	base := line &^ zarch.Addr(lineBytes-1)
	var out []Info
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.info.Addr >= base && e.info.Addr < base+zarch.Addr(lineBytes) {
			out = append(out, e.info)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Addr < out[j-1].Addr; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if len(out) > 0 {
		p.stats.Hits++
	}
	return out
}

func (p *refPreload) Promote(addr zarch.Addr) (Info, bool) {
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.info.Addr == addr {
			e.valid = false
			p.stats.Promotes++
			return e.info, true
		}
	}
	return Info{}, false
}

func (p *refPreload) Invalidate(addr zarch.Addr) bool {
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.info.Addr == addr {
			e.valid = false
			return true
		}
	}
	return false
}

func (p *refPreload) Occupancy() int {
	n := 0
	for i := range p.entries {
		if p.entries[i].valid {
			n++
		}
	}
	return n
}

// fuzzAddr decodes a branch address from three op bytes. The low 11
// bits span 2 KiB of code (64 lines of 32 bytes, so searches hit and
// promotes find their branch); the two bits above 15 step by 32 KiB,
// the filter's period, so distinct granules share filter buckets.
func fuzzAddr(b1, b2, b3 byte) zarch.Addr {
	return 0x40000 + zarch.Addr(uint64(b1&3)<<9|uint64(b2)<<1) + zarch.Addr(b3&3)<<15
}

// checkFilter recounts the valid entries per filter bucket and
// requires the live counts to equal it, and the address column to
// mirror the payload of every valid slot.
func checkFilter(t *testing.T, p *Preload) {
	t.Helper()
	want := make([]uint32, len(p.granules))
	for i, v := range p.valid {
		if !v {
			continue
		}
		want[bucket(p.addr[i])]++
		if p.addr[i] != p.info[i].Addr {
			t.Fatalf("slot %d: address column %s, payload %s", i, p.addr[i], p.info[i].Addr)
		}
	}
	for b := range want {
		if p.granules[b] != want[b] {
			t.Fatalf("filter bucket %d counts %d, recount %d", b, p.granules[b], want[b])
		}
	}
}

func sameInfos(a, b []Info) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzPreloadOps decodes a byte string into a stream of BTBP
// operations and runs it on Preload and on the linear-scan reference:
// every search result (contents and order), victim, promote and
// invalidate outcome, the counters and the occupancy must agree, and
// the filter must equal a recount after every op. The first byte picks
// the line size (32 or 64) and the capacity (64 or 128); each further
// op is four bytes. Besides the four operations there are, rarely, a
// Reset to either capacity (the reuse path: payload columns keep stale
// data) and a scribble that fills every invalid slot with plausible
// garbage, which no read may see.
func FuzzPreloadOps(f *testing.F) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 64, 512, 4096} {
		b := make([]byte, 1+4*n)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacities := [2]int{64, 128}
		lineBytes := 32 << (data[0] & 1)
		p, ref := NewPreload(capacities[data[0]>>1&1]), &refPreload{}
		ref.Reset(len(p.valid))
		for k, data := 0, data[1:]; len(data) >= 4; k, data = k+1, data[4:] {
			op, b1, b2, b3 := data[0], data[1], data[2], data[3]
			addr := fuzzAddr(b1, b2, b3)
			switch {
			case op < 4:
				c := capacities[b1&1]
				p.Reset(c)
				ref.Reset(c)
			case op < 8:
				for i, v := range p.valid {
					if !v {
						g := fuzzAddr(b1+byte(i), b2^byte(i*7), b3)
						p.addr[i], p.info[i], p.stamp[i] = g, Info{Addr: g, Len: 6, Kind: zarch.KindLoop}, ^uint64(0)
					}
				}
			case op%8 < 4:
				in := Info{Addr: addr, Len: 2 + 2*(b3>>2%3), Kind: zarch.KindCondRel,
					Target: addr + zarch.Addr(b3)<<4, BHT: sat.Counter2(b3 >> 6), Skoot: op}
				v, ev := p.Install(in)
				rv, rev := ref.Install(in)
				if v != rv || ev != rev {
					t.Fatalf("op %d: Install(%s) = %+v,%v, reference %+v,%v", k, addr, v, ev, rv, rev)
				}
			case op%8 < 6:
				got := p.SearchLine(addr, lineBytes)
				want := ref.SearchLine(addr, lineBytes)
				if !sameInfos(got, want) {
					t.Fatalf("op %d: SearchLine(%s) = %+v, reference %+v", k, addr, got, want)
				}
			case op%8 == 6:
				got, ok := p.Promote(addr)
				want, wok := ref.Promote(addr)
				if got != want || ok != wok {
					t.Fatalf("op %d: Promote(%s) = %+v,%v, reference %+v,%v", k, addr, got, ok, want, wok)
				}
			default:
				if got, want := p.Invalidate(addr), ref.Invalidate(addr); got != want {
					t.Fatalf("op %d: Invalidate(%s) = %v, reference %v", k, addr, got, want)
				}
			}
			if p.Stats() != ref.stats || p.Occupancy() != ref.Occupancy() {
				t.Fatalf("op %d: stats %+v occupancy %d, reference %+v %d",
					k, p.Stats(), p.Occupancy(), ref.stats, ref.Occupancy())
			}
			checkFilter(t, p)
		}
	})
}
