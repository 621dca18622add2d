package core

import (
	"context"

	"mce/internal/family"
	"mce/internal/graph"
)

// Stream enumerates every maximal clique of g like FindMaxCliques but hands
// each clique to emit as soon as its block batch completes, instead of
// accumulating the full result. Memory stays bounded by the largest block
// batch plus the (small) hub-side recursion — the regime the paper targets,
// where the clique family can dwarf main memory.
//
// emit receives the clique (ascending node IDs; a view that is valid until
// emit returns — package family has the ownership rule) and the recursion
// level it was found at. Cliques arrive in the same deterministic order
// FindMaxCliques returns, from the same recursion: every option
// FindMaxCliques honours is honoured here, except Options.Checkpoint, which
// is refused.
func Stream(g *graph.Graph, opts Options, emit func(clique []int32, level int)) (*Stats, error) {
	return StreamContext(context.Background(), g, opts, emit)
}

// StreamContext is Stream with cancellation, mirroring
// FindMaxCliquesContext.
func StreamContext(ctx context.Context, g *graph.Graph, opts Options, emit func(clique []int32, level int)) (*Stats, error) {
	if opts.Checkpoint != nil {
		// Checkpoint resume replays completed blocks out of their segments;
		// a streaming consumer has already observed (and cannot un-observe)
		// whatever the crashed run emitted, so resumed streaming would
		// duplicate cliques. Refuse rather than betray exactly-once.
		return nil, errCheckpointStream
	}
	return enumerate(ctx, g, opts, func(w family.Window, level int) {
		for i := 0; i < w.Count; i++ {
			emit(w.At(i), level)
		}
	})
}
