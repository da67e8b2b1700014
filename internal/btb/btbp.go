package btb

import (
	"zbp/internal/reuse"
	"zbp/internal/zarch"
)

// Preload is the BTBP, the preload/filter/victim buffer used before
// z15 (paper §III): all BTB2 hit transfers were written here first,
// predictions were made out of both BTB1 and BTBP, content moved into
// the BTB1 only after a qualified BTBP hit, and BTB1 victims were
// captured here. z15 removed it, spending the area on a larger BTB1;
// it exists in this package so the zEC12/z13/z14 baseline
// configurations are faithful.
//
// The BTBP is modeled as a small fully-associative LRU buffer. It is
// searched every cycle, so it is laid out like the BTB1 Table:
// structure-of-arrays columns indexed by slot, with the branch address
// in a column of its own so a search scans 8 bytes per slot. The
// address, info and stamp columns are write-before-read: every read is
// guarded by valid[i], so Reset clears only valid. In front of the
// scan sits a counting filter: granules[b] is the number of valid
// entries whose address falls in a 32-byte granule that maps to bucket
// b, so a search of a line none of whose granules holds an entry
// returns without scanning at all.
type Preload struct {
	valid []bool
	addr  []zarch.Addr // == info[i].Addr for a valid slot
	info  []Info
	stamp []uint64
	// granules is the counting filter, kept exact by every write:
	// Install (a new or evicted slot), Promote and Invalidate.
	granules [granuleBuckets]uint32
	tick     uint64
	stats    PreloadStats
	// searchBuf is the reusable SearchLine result buffer (searched
	// every cycle on pre-z15 configurations).
	searchBuf []Info
}

const (
	// granuleShift sizes the filter's granules (32 bytes: the smallest
	// BTB1 line of any generation, so a line spans whole granules).
	granuleShift = 5
	// granuleBuckets is the filter size, a power of two: 8 buckets per
	// entry of the largest BTBP (128), so few granules share a bucket.
	granuleBuckets = 1024
)

// bucket returns the filter bucket of addr's granule.
func bucket(addr zarch.Addr) int {
	return int(uint64(addr)>>granuleShift) & (granuleBuckets - 1)
}

// PreloadStats counts BTBP events.
type PreloadStats struct {
	Installs int64
	Hits     int64
	Promotes int64
}

// NewPreload returns a BTBP with the given capacity.
func NewPreload(capacity int) *Preload {
	p := new(Preload)
	p.Reset(capacity)
	return p
}

// Reset empties the buffer in place at the given capacity, reusing
// its storage when it is large enough, and clears the counters. Only
// the valid column and the filter are cleared (see Preload).
func (p *Preload) Reset(capacity int) {
	if capacity <= 0 {
		panic("btb: BTBP capacity must be positive")
	}
	*p = Preload{
		valid:     reuse.Slice(p.valid, capacity),
		addr:      reuse.Stale(p.addr, capacity),
		info:      reuse.Stale(p.info, capacity),
		stamp:     reuse.Stale(p.stamp, capacity),
		searchBuf: p.searchBuf[:0],
	}
}

// Stats returns a copy of the counters.
func (p *Preload) Stats() PreloadStats { return p.stats }

// set writes info into slot i, which must be invalid or hold an entry
// already removed from the filter.
func (p *Preload) set(i int, info Info) {
	p.valid[i] = true
	p.addr[i] = info.Addr
	p.info[i] = info
	p.stamp[i] = p.tick
	p.granules[bucket(info.Addr)]++
}

// remove invalidates valid slot i.
func (p *Preload) remove(i int) {
	p.valid[i] = false
	p.granules[bucket(p.addr[i])]--
}

// Install writes info, replacing a same-address entry or the LRU one.
// The displaced victim, if any, is returned: in the semi-exclusive
// pre-z15 designs, BTBP victims flow onward into the BTB2.
func (p *Preload) Install(info Info) (victim Info, evicted bool) {
	p.stats.Installs++
	p.tick++
	lru := 0
	for i := range p.valid {
		if !p.valid[i] {
			p.set(i, info)
			return Info{}, false
		}
		if p.addr[i] == info.Addr {
			// Same address: the filter count is unchanged.
			p.info[i] = info
			p.stamp[i] = p.tick
			return Info{}, false
		}
		if p.stamp[i] < p.stamp[lru] {
			lru = i
		}
	}
	victim = p.info[lru]
	p.remove(lru)
	p.set(lru, info)
	return victim, true
}

// SearchLine returns the branches in the given line (by true address;
// the BTBP is small enough that the model gives it full tags), sorted
// by address. The returned slice aliases an internal buffer and is
// only valid until the next SearchLine call.
func (p *Preload) SearchLine(line zarch.Addr, lineBytes int) []Info {
	base := line &^ zarch.Addr(lineBytes-1)
	end := base + zarch.Addr(lineBytes)
	out := p.searchBuf[:0]
	if !p.mayHold(base, lineBytes) {
		return out
	}
	for i, a := range p.addr {
		if a >= base && a < end && p.valid[i] {
			out = append(out, p.info[i])
		}
	}
	if len(out) > 1 {
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].Addr < out[j-1].Addr; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
	}
	if len(out) > 0 {
		p.stats.Hits++
	}
	p.searchBuf = out
	return out
}

// mayHold reports whether the filter admits a valid entry in the line
// of lineBytes at base: false only when every granule of the line
// counts zero.
func (p *Preload) mayHold(base zarch.Addr, lineBytes int) bool {
	for off := 0; off == 0 || off < lineBytes; off += 1 << granuleShift {
		if p.granules[bucket(base+zarch.Addr(off))] != 0 {
			return true
		}
	}
	return false
}

// find returns the slot of the valid entry for addr, or -1.
func (p *Preload) find(addr zarch.Addr) int {
	for i, a := range p.addr {
		if a == addr && p.valid[i] {
			return i
		}
	}
	return -1
}

// Promote removes and returns the entry for addr, if present: a
// qualified BTBP hit moves the branch into the BTB1.
func (p *Preload) Promote(addr zarch.Addr) (Info, bool) {
	i := p.find(addr)
	if i < 0 {
		return Info{}, false
	}
	p.remove(i)
	p.stats.Promotes++
	return p.info[i], true
}

// Invalidate removes the entry for addr, if present, without counting
// a promote: the IDU found the branch to be bogus (§IV bad prediction).
func (p *Preload) Invalidate(addr zarch.Addr) bool {
	i := p.find(addr)
	if i < 0 {
		return false
	}
	p.remove(i)
	return true
}

// Occupancy returns the number of valid entries.
func (p *Preload) Occupancy() int {
	n := 0
	for _, v := range p.valid {
		if v {
			n++
		}
	}
	return n
}

// Stage is the staging queue between the BTB2 and the BTB1 write port
// (paper §III): BTB2 hits are buffered here and drained one per cycle
// through the read-before-write duplicate check. It is "sized to handle
// the vast statistical majority of BTB2 branch hit transfers"; overflow
// is dropped and counted.
type Stage struct {
	buf      []Info
	capacity int
	drops    int64
	peak     int
}

// NewStage returns a staging queue with the given capacity.
func NewStage(capacity int) *Stage {
	s := new(Stage)
	s.Reset(capacity)
	return s
}

// Reset empties the queue in place at the given capacity, keeping its
// buffer, and clears the drop and peak counters.
func (s *Stage) Reset(capacity int) {
	if capacity <= 0 {
		panic("btb: stage capacity must be positive")
	}
	*s = Stage{buf: s.buf[:0], capacity: capacity}
}

// Push enqueues info, dropping it (and counting the drop) when full.
func (s *Stage) Push(info Info) {
	if len(s.buf) >= s.capacity {
		s.drops++
		return
	}
	s.buf = append(s.buf, info)
	if len(s.buf) > s.peak {
		s.peak = len(s.buf)
	}
}

// Pop dequeues the oldest entry.
func (s *Stage) Pop() (Info, bool) {
	if len(s.buf) == 0 {
		return Info{}, false
	}
	info := s.buf[0]
	copy(s.buf, s.buf[1:])
	s.buf = s.buf[:len(s.buf)-1]
	return info, true
}

// Remove discards every queued transfer for addr (an IDU-detected bad
// prediction must not re-enter the BTB1 from an in-flight backfill).
func (s *Stage) Remove(addr zarch.Addr) {
	kept := s.buf[:0]
	for _, info := range s.buf {
		if info.Addr != addr {
			kept = append(kept, info)
		}
	}
	s.buf = kept
}

// Len returns the current queue depth.
func (s *Stage) Len() int { return len(s.buf) }

// Drops returns how many transfers were lost to a full queue.
func (s *Stage) Drops() int64 { return s.drops }

// Peak returns the maximum depth observed.
func (s *Stage) Peak() int { return s.peak }
