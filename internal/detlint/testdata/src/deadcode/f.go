// Command fix is a deadcode fixture: a main package whose functions
// are live only when a root reaches them through non-test code, or when
// they implement an interface the program uses.
package main

import "fmt"

type shape struct{ side int }

// areaer is named by main, so every method it needs is live.
type areaer interface{ Area() int }

// Area implements areaer.
func (s shape) Area() int { return s.side * s.side }

// String implements fmt.Stringer, which fmt calls by reflection.
func (s shape) String() string { return fmt.Sprint("shape ", s.side) }

// Perimeter is a method no interface and no call reaches.
func (s shape) Perimeter() int { return 4 * s.side } // want deadcode

type box[T any] struct{ v T }

// get is reached through an instantiation of the generic type.
func (b box[T]) get() T { return b.v }

// table passes its references on once main names it.
var table = []func() int{viaTable}

func main() {
	var a areaer = shape{2}
	fmt.Println(a.Area(), shape{3}, live(), table[0](), box[int]{4}.get())
	nowLive()
}

func init() { initOnly() }

func initOnly() {}

func live() int { return helper() }

func helper() int { return 1 }

func viaTable() int { return 2 }

// unreachable has no caller at all.
func unreachable() int { return 3 } // want deadcode

// testOnly is called only from f_test.go, and test files never count.
func testOnly() int { return 4 } // want deadcode

// seam is a test seam kept in production code on purpose.
//
//detlint:ignore deadcode fixture: a test seam that only tests call
func seam() {}

// nowLive was once a seam; main calls it now, so its directive is
// stale.
//
//detlint:ignore deadcode stale: main calls it now // want ignoreaudit
func nowLive() {}
