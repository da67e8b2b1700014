// Package reuse holds the storage primitive behind the simulator's
// in-place resets: every predictor table is rebuilt by re-slicing the
// storage it already owns, so a machine reused across cells allocates
// only when a table must grow.
package reuse

// Slice returns s resized to n zeroed elements. It reuses s's backing
// array when the capacity suffices and allocates only when it must
// grow; elements beyond n are left untouched and unreachable.
func Slice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
