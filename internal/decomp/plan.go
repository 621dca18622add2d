package decomp

import (
	"sync"
	"sync/atomic"
	"time"
)

// Plan is one level's block plan as GrowSeq yields it: an append-only list
// of blocks with exactly one writer and any number of readers. The writer
// appends each block the moment it is planned and seals the plan when it is
// done (or stops early); a reader asks for block i and waits until it is
// published or the plan is sealed without it. Blocks live in fixed-size
// chunks that never move, so a published block is read without a lock, and
// a block's index is its position in Grow's order.
type Plan struct {
	chunks [][]Block    // chunk k holds blocks k·planChunk onwards; sized once
	max    int          // the most blocks the writer may append
	n      atomic.Int64 // blocks published
	sealed atomic.Bool
	born   time.Time    // when the plan was made
	taken  atomic.Int64 // 1 + time since born when block 0 was first taken; 0 before

	waiters atomic.Int32 // readers parked in wait
	mu      sync.Mutex
	cond    sync.Cond
}

// planChunk is the number of blocks per chunk. The last chunk is cut to the
// plan's maxBlocks, so a small level's plan is no bigger than its bound.
const planChunk = 512

// NewPlan returns an empty plan of at most maxBlocks blocks for one writer
// to Append to and Seal. A level's plan has at most one block per feasible
// node, each being the kernel of one block.
func NewPlan(maxBlocks int) *Plan {
	p := &Plan{chunks: make([][]Block, (maxBlocks+planChunk-1)/planChunk), max: maxBlocks, born: time.Now()}
	p.cond.L = &p.mu
	return p
}

// Append publishes b as the next block. Only the plan's one writer calls
// it, never after Seal, and no more often than NewPlan's maxBlocks.
func (p *Plan) Append(b Block) {
	if p.sealed.Load() {
		panic("decomp: Append to a sealed plan")
	}
	i := int(p.n.Load())
	k, off := i/planChunk, i%planChunk
	if off == 0 {
		p.chunks[k] = make([]Block, min(planChunk, p.max-i))
	}
	p.chunks[k][off] = b
	p.n.Store(int64(i + 1))
	if p.waiters.Load() > 0 {
		p.broadcast()
	}
}

// Seal ends the plan: no block follows, and every waiting reader returns.
// The writer seals exactly once, whether it planned every block or stopped
// early.
func (p *Plan) Seal() {
	p.sealed.Store(true)
	p.broadcast()
}

func (p *Plan) broadcast() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Block returns block i, waiting until the writer has published it; nil
// when the plan was sealed with i blocks or fewer. The block is shared by
// every reader and must not be written.
func (p *Plan) Block(i int) *Block {
	if i >= int(p.n.Load()) && !p.wait(i) {
		return nil
	}
	if i == 0 && p.taken.Load() == 0 {
		p.taken.CompareAndSwap(0, int64(time.Since(p.born))+1)
	}
	return &p.chunks[i/planChunk][i%planChunk]
}

// Taken reports when a reader first took block 0, which is when the plan's
// analysis began: as soon as the block is published for a reader that
// takes blocks while the plan grows, at the seal or later for one that
// waits for it. ok is false while no reader has taken block 0.
func (p *Plan) Taken() (at time.Time, ok bool) {
	d := p.taken.Load()
	if d == 0 {
		return time.Time{}, false
	}
	return p.born.Add(time.Duration(d - 1)), true
}

// Len returns the number of blocks published so far.
func (p *Plan) Len() int { return int(p.n.Load()) }

// Sealed reports whether the writer is done: Len is then final.
func (p *Plan) Sealed() bool { return p.sealed.Load() }

// wait parks the caller until block i is published or the plan is sealed,
// and reports whether block i exists. A reader counts itself in waiters
// before it looks at the count again, and the writer looks at waiters after
// it stored the count, so one of the two always sees the other.
func (p *Plan) wait(i int) bool {
	p.mu.Lock()
	p.waiters.Add(1)
	for i >= int(p.n.Load()) && !p.sealed.Load() {
		p.cond.Wait()
	}
	p.waiters.Add(-1)
	p.mu.Unlock()
	return i < int(p.n.Load())
}

// Bound returns the most blocks the plan may hold, NewPlan's maxBlocks.
func (p *Plan) Bound() int { return p.max }

// Digest fingerprints the plan once it is sealed: its blocks' digests
// (Block.Digest) folded in plan order. A checkpoint journals it beside the
// level's block count at the level's seal, so a resume refuses a plan that
// changed but kept its count.
func (p *Plan) Digest() uint64 {
	h := uint64(offset64)
	for i, n := 0, p.Len(); i < n; i++ {
		d := p.Block(i).Digest()
		h = (h ^ d&0xffffffff) * prime64
		h = (h ^ d>>32) * prime64
	}
	return h
}

// FNV-1a's 64-bit parameters, folded a 32-bit word at a time.
const offset64, prime64 = 14695981039346656037, 1099511628211

// Digest fingerprints the block's membership: FNV-1a over its Orig, Kernel,
// Border and Visited, each list prefixed by its length. A checkpoint's done
// record carries it, so a block is served from the log only when the block
// re-grown at its plan index has the same members in the same roles.
func (b *Block) Digest() uint64 {
	h := uint64(offset64)
	for _, list := range [4][]int32{b.Orig, b.Kernel, b.Border, b.Visited} {
		h = (h ^ uint64(len(list))) * prime64
		for _, v := range list {
			h = (h ^ uint64(uint32(v))) * prime64
		}
	}
	return h
}
