package hotallocfix

// Fixture for hotalloc across generic calls: the root reaches a method of
// a generic type, and a generic function instantiated explicitly, each at
// two shapes. The call graph must land each call on the one generic
// declaration, and the compiler's one report per shape must count as one
// site.

// words is the type set of the fixture's generic bodies.
type words interface{ []uint64 | [2]uint64 }

// walker keeps a pointer to every window it steps over.
type walker[W words] struct{ kept []*W }

// walkAll is the annotated root; it allocates nothing itself.
//
//mce:hotpath fixture root reaching generic callees
func walkAll(n int) int {
	var a walker[[2]uint64]
	var b walker[[]uint64]
	return a.step() + b.step() + fill[[2]uint64](n) + fill[[]uint64](n)
}

// step is hot via walkAll, reached through an instantiated method.
//
//go:noinline
func (w *walker[W]) step() int {
	var x W // want `hot-path allocation not in budget: moved to heap: x`
	w.kept = append(w.kept, &x)
	return len(w.kept)
}

// fill is hot via walkAll, reached through an explicit instantiation.
//
//go:noinline
func fill[W words](n int) int {
	buf := make([]W, n) // want `hot-path allocation not in budget: make\(\[\]go\.shape, n\) escapes to heap`
	return len(buf)
}
