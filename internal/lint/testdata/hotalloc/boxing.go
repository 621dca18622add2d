package hotallocfix

import (
	"fmt"
	"sort"
)

// Boxing, fmt and hot-loop closure captures: each allocates per call, and
// the compiler's escape analysis proves it, so hotalloc reports every one as
// an unbudgeted site.

// report formats on the hot path.
//
//mce:hotpath boxing fixture root
func report(vals []int) string {
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] }) // want `not in budget: vals escapes to heap`
	n := len(vals)
	return fmt.Sprintf("%d", n) // want `not in budget: n escapes to heap`
}

// assignBox boxes through an assignment to an interface variable.
//
//mce:hotpath assignment root
func assignBox(n int) any {
	var v any
	v = n // want `not in budget: n escapes to heap`
	return v
}

// convBox boxes through an explicit conversion.
//
//mce:hotpath conversion root
func convBox(s string) any {
	return any(s) // want `not in budget: any\(s\) escapes to heap`
}

// captureLoop declares a variable inside a hot loop and lets an escaping
// closure capture it: the compiler moves it to the heap.
//
//mce:hotpath capture root
//go:noinline
func captureLoop(rows [][]int) int {
	total := 0
	for _, row := range rows {
		acc := 0                // want `not in budget: moved to heap: acc`
		walk(row, func(v int) { // want `not in budget: func literal escapes to heap`
			acc += v
		})
		total += acc
	}
	return total
}

// sink forces the walk callback (and everything it captures) to escape.
var sink func(int)

//go:noinline
func walk(xs []int, f func(int)) {
	sink = f
	for _, v := range xs {
		f(v)
	}
}
