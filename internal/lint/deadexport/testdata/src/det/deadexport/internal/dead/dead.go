// Package dead declares one exported name per deadexport case.
package dead

import (
	"fmt"
	"strings"
)

// Used is called from package user.
func Used() int { return 1 }

func Unused() {} // want `exported Unused has no reference outside tests`

// OnlyTested is called from dead_test.go alone.
func OnlyTested() {} // want `exported OnlyTested`

// UsedByNested is called from the nested module's non-test file alone.
func UsedByNested() {}

// OnlyNestedTest is called from the nested module's _test.go file alone.
func OnlyNestedTest() {} // want `exported OnlyNestedTest`

// DeadCaller is dead, so its call does not keep OnlyDeadCallee live.
func DeadCaller() int { return OnlyDeadCallee() } // want `exported DeadCaller`

func OnlyDeadCallee() int { return 2 } // want `exported OnlyDeadCallee`

// Kept is dead but kept by a directive, so KeptCallee is live.
//
//lint:allow deadexport TestDeadExport keeps it as its reference
func Kept() int { return KeptCallee() }

func KeptCallee() int { return 3 }

const Limit = 4 // want `exported Limit`

var Registry []string // want `exported Registry`

type Orphan struct{} // want `exported Orphan`

// Celsius is used by package user.
type Celsius float64

// String satisfies fmt.Stringer.
func (c Celsius) String() string { return fmt.Sprintf("%g°C", float64(c)) }

func (c Celsius) Kelvin() float64 { return float64(c) + 273.15 } // want `exported Celsius.Kelvin`

// Error has error's name but not its signature.
func (c Celsius) Error(verbose bool) string { return c.String() } // want `exported Celsius.Error`

// Ints satisfies sort.Interface; package user sorts it.
type Ints []int

func (s Ints) Len() int           { return len(s) }
func (s Ints) Less(i, j int) bool { return s[i] < s[j] }
func (s Ints) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Shape is an interface of this module; Square satisfies it.
type Shape interface{ Area() float64 }

// Square is used by package user and by the nested module.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is called by the nested module alone.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// Label is called by the nested module through an interface the loaded
// packages never declare, which leaves it to the fallback by name.
func (s Square) Label() string { return strings.Repeat("□", int(s.Side)) }
