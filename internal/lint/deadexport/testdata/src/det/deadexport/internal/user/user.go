// Package user refers to package dead the way live code does.
package user

import (
	"sort"

	"det/deadexport/internal/dead"
)

// Run uses dead's live names.
func Run() float64 {
	var s dead.Shape = dead.Square{Side: 2}
	xs := dead.Ints{3, 1, 2}
	sort.Sort(xs)
	return s.Area() + float64(dead.Used()) + float64(dead.Celsius(1)) + float64(xs[0])
}

// Walk is used by cmd/tool, so this directive suppresses nothing.
//
//lint:allow deadexport stale on purpose: the driver test expects -stale to report it
func Walk() {}
