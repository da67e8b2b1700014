// Package history implements the Global Path Vector (GPV), the taken-
// branch path history used throughout the z15 predictor (paper §V).
//
// As each taken branch is encountered during prediction, select bits of
// its instruction address are hashed down to a 2-bit "branch GPV" which
// is shifted into the main vector; the oldest branch's bits fall out.
// z13 tracked the last 9 taken branches (18 bits); z14 and z15 track 17
// (34 bits). Not-taken predictions do not participate, because the
// search pipeline only re-indexes on taken branches.
package history

import (
	"zbp/internal/hashx"
	"zbp/internal/zarch"
)

// BitsPerBranch is the width of one branch's hashed contribution.
const BitsPerBranch = 2

// Depths of the GPV across generations.
const (
	DepthZ13 = 9  // z13 and earlier: 9 taken branches (18 bits)
	DepthZ15 = 17 // z14/z15: 17 taken branches (34 bits)
)

// GPV is a fixed-depth taken-branch path history. The zero value is an
// empty history of depth 0; use New.
type GPV struct {
	bits  uint64
	depth int
}

// New returns an empty GPV tracking the given number of taken branches.
// depth must be in [1, 32].
func New(depth int) GPV {
	var g GPV
	g.Reset(depth)
	return g
}

// Reset empties the history in place and sets its depth, which must
// be in [1, 32].
func (g *GPV) Reset(depth int) {
	if depth < 1 || depth > 32 {
		panic("history: GPV depth out of range")
	}
	*g = GPV{depth: depth}
}

// Depth returns the number of taken branches tracked.
func (g GPV) Depth() int { return g.depth }

// Width returns the total number of history bits.
func (g GPV) Width() int { return g.depth * BitsPerBranch }

// mask covers the live history bits.
func (g GPV) mask() uint64 { return uint64(1)<<uint(g.Width()) - 1 }

// BranchGPV hashes a taken branch's instruction address down to its
// 2-bit contribution.
func BranchGPV(addr zarch.Addr) uint64 {
	// Select bits above the halfword bit; fold them to 2 bits. Using
	// low-ish address bits keeps nearby branches distinguishable, as the
	// hardware does.
	return hashx.Fold(uint64(addr)>>1, BitsPerBranch)
}

// Push shifts the 2-bit hash of a taken branch's address into the
// history, returning the updated GPV. GPV is a value type so the GPQ
// can snapshot it per prediction for cheap restart recovery.
func (g GPV) Push(addr zarch.Addr) GPV {
	g.bits = (g.bits<<BitsPerBranch | BranchGPV(addr)) & g.mask()
	return g
}

// Bits returns the raw history bits (youngest branch in the low bits).
func (g GPV) Bits() uint64 { return g.bits }

// Bit returns history bit i (0 = youngest).
func (g GPV) Bit(i int) bool {
	if i < 0 || i >= g.Width() {
		panic("history: GPV bit index out of range")
	}
	return g.bits>>uint(i)&1 == 1
}

// Recent returns the low-order bits covering the most recent n taken
// branches. n must not exceed the depth. This is how the short TAGE
// table's 9-branch index is extracted from the full 17-branch vector.
func (g GPV) Recent(n int) uint64 {
	if n < 0 || n > g.depth {
		panic("history: Recent depth out of range")
	}
	return g.bits & (uint64(1)<<uint(n*BitsPerBranch) - 1)
}

// FoldIndex folds the most recent n branches of history together with
// the branch address into a table index of the given bit width.
func (g GPV) FoldIndex(addr zarch.Addr, n int, width uint) uint64 {
	h := g.Recent(n)
	return hashx.Fold(h^uint64(addr)>>1^uint64(addr)>>7, width)
}

// FoldTag folds history and address into a partial tag of the given
// width, using a different bit mix than FoldIndex so index and tag
// aliasing are decorrelated.
func (g GPV) FoldTag(addr zarch.Addr, n int, width uint) uint64 {
	h := g.Recent(n)
	return hashx.Fold(h*0x9e37&^1^uint64(addr)>>2^h>>3, width)
}
