package fixture

import "sync"

// The lock-order rule: no body takes a lock while it already holds another.
// Two bodies nesting the same pair in opposite orders deadlock; forbidding
// the nesting itself leaves no order to get wrong.

type Ledger struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	items map[string]int
}

// Transfer nests the read lock inside the write lock: another body taking
// them in the other order deadlocks against this one.
func (l *Ledger) Transfer(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rw.RLock() // want `l\.rw\.RLock\(\) while l\.mu is held`
	defer l.rw.RUnlock()
	l.items[key]++
}

// Sync takes its two locks one after the other, never one inside the other.
func (l *Ledger) Sync(key string) int {
	l.rw.RLock()
	n := l.items[key]
	l.rw.RUnlock()
	l.mu.Lock()
	l.items[key] = n + 1
	l.mu.Unlock()
	return n
}
