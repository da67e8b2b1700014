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

// Stale returns s resized to n elements like Slice, but does not zero
// the elements it reuses: they keep whatever an earlier use left in
// them. Only storage that is written before it is read may use it,
// i.e. a column whose every read is guarded by a separately cleared
// one (a BTB's payload columns behind its valid bits).
func Stale[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
