package fixture

import "sync"

var quiet sync.Mutex

// Quiet carries a directive with no justification: the directive itself is
// reported and the finding it tried to hide is kept.
func Quiet() {
	//lint:ignore lockbalance
	quiet.Lock()
}
