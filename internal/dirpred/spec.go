package dirpred

import "zbp/internal/zarch"

// SpecDir is the speculative direction tracker used for both the SBHT
// and the SPHT (paper §IV). Because the gap between prediction and
// non-speculative completion is long, a weak 2-bit counter would be
// consulted repeatedly in its stale weak state by in-flight instances
// of the same branch. A SpecDir entry records the direction a weak
// prediction was assumed to take (strengthened), or the corrected
// direction after a mispredict, and overrides the underlying predictor
// until the installing instance completes or is flushed.
type SpecDir struct {
	entries  []specEntry
	capacity int
}

type specEntry struct {
	addr zarch.Addr
	dir  bool
	seq  uint64 // GPQ sequence of the installing branch instance
}

// NewSpecDir returns a tracker with the given capacity; capacity 0
// yields a disabled tracker whose Lookup never hits.
func NewSpecDir(capacity int) *SpecDir {
	s := new(SpecDir)
	s.Reset(capacity)
	return s
}

// Reset empties the tracker in place at the given capacity, keeping
// its entry buffer.
func (s *SpecDir) Reset(capacity int) {
	*s = SpecDir{entries: s.entries[:0], capacity: capacity}
}

// Install records an assumed/corrected direction for addr, tagged with
// the installing instance's sequence number, and reports whether an
// entry was stored (a disabled tracker stores nothing, so no
// speculative strengthening may be assumed). An existing entry for the
// same address is replaced; otherwise the oldest entry makes room.
func (s *SpecDir) Install(addr zarch.Addr, dir bool, seq uint64) bool {
	if s.capacity == 0 {
		return false
	}
	for i := range s.entries {
		if s.entries[i].addr == addr {
			s.entries[i].dir = dir
			s.entries[i].seq = seq
			return true
		}
	}
	if len(s.entries) >= s.capacity {
		copy(s.entries, s.entries[1:])
		s.entries = s.entries[:len(s.entries)-1]
	}
	s.entries = append(s.entries, specEntry{addr: addr, dir: dir, seq: seq})
	return true
}

// Lookup returns the override direction for addr, if present.
func (s *SpecDir) Lookup(addr zarch.Addr) (bool, bool) {
	for i := range s.entries {
		if s.entries[i].addr == addr {
			return s.entries[i].dir, true
		}
	}
	return false, false
}

// Complete removes entries installed by the completing instance.
func (s *SpecDir) Complete(seq uint64) {
	s.removeIf(func(e specEntry) bool { return e.seq == seq })
}

// Flush removes entries installed by instances at or after seq (a
// pipeline flush kills the wrong-path installers).
func (s *SpecDir) Flush(seq uint64) {
	s.removeIf(func(e specEntry) bool { return e.seq >= seq })
}

func (s *SpecDir) removeIf(pred func(specEntry) bool) {
	out := s.entries[:0]
	for _, e := range s.entries {
		if !pred(e) {
			out = append(out, e)
		}
	}
	s.entries = out
}

// Len returns the number of live entries.
func (s *SpecDir) Len() int { return len(s.entries) }
