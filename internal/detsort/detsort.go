// Package detsort provides deterministic iteration over Go maps. Map range
// order is randomized per run, so any map iteration whose effects reach a
// run's output is a byte-identity bug; ranging over detsort.Keys(m) instead
// fixes the order by sorting the keys. The selfmaintlint mapiter analyzer
// flags raw map ranges in deterministic packages and suggests exactly this
// rewrite.
package detsort

import (
	"cmp"
	"slices"
)

// Keys returns the keys of m, sorted ascending. The slice is freshly
// allocated; hot paths that iterate repeatedly should retain a buffer and
// use KeysInto.
func Keys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	return KeysInto[M, K, V](nil, m)
}

// KeysInto appends the keys of m to dst (which may be nil or recycled with
// dst[:0]) and sorts the appended region, returning the extended slice.
// Steady-state callers reuse dst across iterations and allocate nothing
// once it has grown to the map's size.
func KeysInto[M ~map[K]V, K cmp.Ordered, V any](dst []K, m M) []K {
	base := len(dst)
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst[base:])
	return dst
}
