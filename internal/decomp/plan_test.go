package decomp

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"mce/internal/gen"
)

// pushed runs GrowSeq into a Plan on a goroutine of its own, as the engine
// does, and collects the plan back through Block on the caller's: the push
// form, read while it is being written.
func pushed(t testing.TB, maxBlocks int, grow func(yield func(Block) bool)) []Block {
	t.Helper()
	p := NewPlan(maxBlocks)
	go func() {
		defer p.Seal()
		grow(func(b Block) bool {
			p.Append(b)
			return true
		})
	}()
	var blocks []Block
	for i := 0; ; i++ {
		b := p.Block(i)
		if b == nil {
			break
		}
		blocks = append(blocks, *b)
	}
	if n := p.Len(); !p.Sealed() || n != len(blocks) {
		t.Fatalf("plan of %d blocks (sealed %v), read %d", n, p.Sealed(), len(blocks))
	}
	return blocks
}

// sealedPlan is a plan already complete over blocks.
func sealedPlan(blocks []Block) *Plan {
	p := NewPlan(len(blocks))
	for _, b := range blocks {
		p.Append(b)
	}
	p.Seal()
	return p
}

// TestPlanOneWriterManyReaders: readers that claim indices from a shared
// counter, and readers that walk the whole plan, see every block exactly
// where the writer put it while the plan is being written, and every reader
// ends parked past the last block before the seal, which releases them.
// Run under -race this also checks that a published block is read without a
// data race.
func TestPlanOneWriterManyReaders(t *testing.T) {
	// Sizes around the chunk boundaries.
	for _, n := range []int{0, 1, planChunk - 1, planChunk, planChunk + 1, 3*planChunk + 5} {
		p := NewPlan(n)
		var claims sync.Mutex
		next, seen := 0, make([]int, n)
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(2)
			go func() { // claims the next index, like an executor worker
				defer wg.Done()
				for {
					claims.Lock()
					i := next
					next++
					claims.Unlock()
					b := p.Block(i)
					if b == nil {
						if i < n {
							t.Errorf("n=%d: block %d missing", n, i)
						}
						return
					}
					if int(b.Orig[0]) != i {
						t.Errorf("n=%d: block %d holds %d", n, i, b.Orig[0])
					}
					claims.Lock()
					seen[i]++
					claims.Unlock()
				}
			}()
			go func() { // walks every block, and one past the end
				defer wg.Done()
				for i := 0; i <= n; i++ {
					b := p.Block(i)
					if (b == nil) != (i == n) {
						t.Errorf("n=%d: block %d present = %v", n, i, b != nil)
						return
					}
					if b != nil && int(b.Orig[0]) != i {
						t.Errorf("n=%d: block %d holds %d", n, i, b.Orig[0])
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			p.Append(Block{Orig: []int32{int32(i)}})
		}
		// Every reader ends on a block past the end: seal only once all
		// eight are parked there.
		for p.waiters.Load() < 8 {
			runtime.Gosched()
		}
		p.Seal()
		wg.Wait()
		if p.Len() != n || !p.Sealed() {
			t.Fatalf("n=%d: sealed plan reports %d blocks", n, p.Len())
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: block %d claimed %d times", n, i, c)
			}
		}
	}
}

// TestPlanReadersWaitForSeal: readers past the last block park until the
// seal, which releases all of them at once with no block.
func TestPlanReadersWaitForSeal(t *testing.T) {
	p := NewPlan(1)
	p.Append(Block{Orig: []int32{7}})
	var wg sync.WaitGroup
	got := make(chan *Block, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got <- p.Block(1 + r)
		}()
	}
	for p.waiters.Load() < 3 {
		runtime.Gosched()
	}
	p.Seal()
	wg.Wait()
	close(got)
	for b := range got {
		if b != nil {
			t.Fatalf("a reader past the end got %+v", b)
		}
	}
	if b := p.Block(0); b == nil || b.Orig[0] != 7 {
		t.Fatalf("block 0 = %+v after the seal", b)
	}
}

// TestPlanTaken: a plan records when a reader first took block 0, not when
// the block was published, and only the first time.
func TestPlanTaken(t *testing.T) {
	p := NewPlan(2)
	p.Append(Block{Orig: []int32{1}})
	if _, ok := p.Taken(); ok {
		t.Fatal("taken before any reader took block 0")
	}
	p.Append(Block{Orig: []int32{2}})
	p.Block(1)
	if _, ok := p.Taken(); ok {
		t.Fatal("taking block 1 counted as taking block 0")
	}
	time.Sleep(2 * time.Millisecond)
	before := time.Now()
	p.Block(0)
	first, ok := p.Taken()
	if !ok || first.Before(before) || first.After(time.Now()) {
		t.Fatalf("taken at %v (ok %v), want inside the Block(0) call after %v", first, ok, before)
	}
	p.Block(0)
	if again, _ := p.Taken(); !again.Equal(first) {
		t.Fatalf("a second take moved the time from %v to %v", first, again)
	}
}

// TestGrowSeqStops: GrowSeq stops at the first yield that returns false and
// yields the same prefix as the whole plan.
func TestGrowSeqStops(t *testing.T) {
	g := gen.HolmeKim(2000, 5, 0.7, 3)
	feasible, _ := Cut(g, 24)
	all := Grow(g, feasible, 24, Options{})
	if len(all) < 10 {
		t.Fatalf("fixture has %d blocks", len(all))
	}
	var got []Block
	GrowSeq(g, feasible, 24, Options{})(func(b Block) bool {
		got = append(got, b)
		return len(got) < 5
	})
	if len(got) != 5 {
		t.Fatalf("yielded %d blocks after the stop at 5", len(got))
	}
	for i := range got {
		requireSameMembership(t, "prefix", &got[i], &all[i])
	}
}
