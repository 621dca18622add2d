package cluster

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// A failed task or redial at an address holds the address back from
// dispatch and redial for holdBase·2^(fails−1), at most holdMax; a
// successful task clears the hold.
const (
	holdBase = 50 * time.Millisecond
	holdMax  = 2 * time.Second

	latencyAlpha = 0.3 // EWMA weight of the newest round trip
)

// workerHealth is one address's card, shared by every connection to the
// address across redials. Guarded by Client.mu.
type workerHealth struct {
	tasks   int
	busy    time.Duration
	latEWMA float64 // round-trip EWMA, nanoseconds; 0 until the first success
	corrupt int64
	fails   int       // consecutive failed tasks and redials
	until   time.Time // the hold: no dispatch or redial before it
}

func (h *workerHealth) succeed(rtt time.Duration) {
	h.tasks++
	h.busy += rtt
	if h.latEWMA == 0 {
		h.latEWMA = float64(rtt)
	} else {
		h.latEWMA = latencyAlpha*float64(rtt) + (1-latencyAlpha)*h.latEWMA
	}
	h.fails = 0
	h.until = time.Time{}
}

// fail records one failure at now and returns the end of the hold it sets.
func (h *workerHealth) fail(now time.Time, corrupt bool) time.Time {
	h.fails++
	if corrupt {
		h.corrupt++
	}
	d := holdBase
	for k := 1; k < h.fails && d < holdMax; k++ {
		d *= 2
	}
	h.until = now.Add(min(d, holdMax))
	return h.until
}

// credit records a completed task at addr.
func (c *Client) credit(addr string, rtt time.Duration) {
	c.mu.Lock()
	c.health[addr].succeed(rtt)
	c.mu.Unlock()
}

// charge records a failed task at addr; corrupt marks an in-sync corrupt
// verdict rather than a transport failure.
func (c *Client) charge(addr string, corrupt bool) {
	c.mu.Lock()
	c.health[addr].fail(time.Now(), corrupt)
	c.mu.Unlock()
}

// hold returns how much longer dispatch to addr must wait at now. It is
// waived while no other address has a live, unheld connection: the only
// address that can serve always serves. A hold only runs out and only a
// failure re-arms it, so every wait ends.
func (c *Client) hold(addr string, now time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	until := c.health[addr].until
	if !now.Before(until) {
		return 0
	}
	for _, wc := range c.conns {
		if !wc.dead && wc.addr != addr && !now.Before(c.health[wc.addr].until) {
			return until.Sub(now)
		}
	}
	return 0
}

// WorkerHealthInfo is one address's row in a HealthReport.
type WorkerHealthInfo struct {
	Addr                string
	Live                int           // connections up
	Tasks               int           // blocks completed, across redials
	Busy                time.Duration // their total round-trip time, simulated latency included
	LatencyEWMA         time.Duration // smoothed round trip of recent tasks
	CorruptResults      int64         // corrupt verdicts attributed to the address
	ConsecutiveFailures int           // failed tasks and redials in a row; sets the hold's length
	Held                time.Duration // what was left of the hold; 0: dispatched freely
}

// HealthReport is a DialReport-style summary of per-worker health: which
// workers the run leaned on, which it lost or held back, and why. Rows are
// ordered by address.
type HealthReport struct {
	Workers []WorkerHealthInfo
}

// Degraded reports whether any worker is down, held back or failing.
func (r HealthReport) Degraded() bool {
	for _, w := range r.Workers {
		if w.Live == 0 || w.Held > 0 || w.ConsecutiveFailures > 0 {
			return true
		}
	}
	return false
}

// String renders the one-line-per-worker summary mcefind prints.
func (r HealthReport) String() string {
	if len(r.Workers) == 0 {
		return "no workers"
	}
	var b strings.Builder
	for i, w := range r.Workers {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s: live=%d tasks=%d rtt~%s corrupt=%d fails=%d held=%s",
			w.Addr, w.Live, w.Tasks, w.LatencyEWMA.Round(time.Millisecond),
			w.CorruptResults, w.ConsecutiveFailures, w.Held.Round(time.Millisecond))
	}
	return b.String()
}

// HealthReport returns the per-address summary of every dialled address.
func (c *Client) HealthReport() HealthReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	live := make(map[string]int)
	for _, wc := range c.conns {
		if !wc.dead {
			live[wc.addr]++
		}
	}
	addrs := make([]string, 0, len(c.health))
	for a := range c.health {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	rep := HealthReport{Workers: make([]WorkerHealthInfo, 0, len(addrs))}
	for _, a := range addrs {
		h := c.health[a]
		rep.Workers = append(rep.Workers, WorkerHealthInfo{
			Addr:                a,
			Live:                live[a],
			Tasks:               h.tasks,
			Busy:                h.busy,
			LatencyEWMA:         time.Duration(h.latEWMA),
			CorruptResults:      h.corrupt,
			ConsecutiveFailures: h.fails,
			Held:                max(h.until.Sub(now), 0),
		})
	}
	return rep
}
