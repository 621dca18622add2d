package fixture

import "sync"

var mu sync.Mutex

// Blocked leaks the lock, but the justified directive suppresses it.
func Blocked() {
	//lint:ignore lockbalance fixture: demonstrates suppression of a real finding
	mu.Lock()
}

// Loud is the control: same violation, no directive.
func Loud() {
	mu.Lock() // want `mu\.Lock\(\) is not immediately deferred`
}
