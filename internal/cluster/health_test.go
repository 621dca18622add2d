package cluster

import (
	"net"
	"strings"
	"testing"
	"time"
)

const ms = time.Millisecond

// holdStep is one step of a hold-policy case.
type holdStep struct {
	do   string // "fail", "corrupt", "succeed", "redial" (forced) or "sweep" (the background loop's)
	addr string
	hold time.Duration // hold(addr) after the step; at least this much after a redial
}

// holdCase builds a client over conns (a "!" prefix marks a dead one),
// applies steps in order and checks the hold dispatch sees at the steps'
// clock, then the health report.
type holdCase struct {
	name     string
	conns    []string
	steps    []holdStep
	workers  int   // live connections at the end
	corrupt  int64 // the first report row's corrupt verdicts
	fails    int   // and its failure streak
	degraded bool
}

// runHoldCases runs each case as a subtest. Redials go through the real
// sweep, so "up" is a worker that answers and "down" an address nothing
// listens on; "a" and "b" are never dialled.
func runHoldCases(t *testing.T, cases ...holdCase) {
	t.Helper()
	upAddrs, stop, err := StartLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	down := ln.Addr().String()
	ln.Close()
	addrOf := map[string]string{"up": upAddrs[0], "down": down, "a": "a:1", "b": "b:2"}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Client{
				health:   make(map[string]*workerHealth),
				kick:     make(chan struct{}, 1),
				done:     make(chan struct{}),
				recruits: make(map[chan *workerConn]struct{}),
			}
			defer c.Close()
			for _, name := range tc.conns {
				addr := addrOf[strings.TrimPrefix(name, "!")]
				c.conns = append(c.conns, &workerConn{addr: addr, dead: strings.HasPrefix(name, "!")})
				c.health[addr] = &workerHealth{}
			}
			now := time.Now()
			for k, s := range tc.steps {
				addr := addrOf[s.addr]
				switch s.do {
				case "fail", "corrupt":
					c.mu.Lock()
					c.health[addr].fail(now, s.do == "corrupt")
					c.mu.Unlock()
				case "succeed":
					c.credit(addr, ms)
				case "redial", "sweep":
					c.redial(s.do == "redial")
				}
				got := c.hold(addr, now)
				if got < s.hold || (s.do != "redial" && got != s.hold) {
					t.Fatalf("step %d (%s %s): hold %v, want %v", k, s.do, s.addr, got, s.hold)
				}
			}
			if got := c.Workers(); got != tc.workers {
				t.Fatalf("%d live connections, want %d", got, tc.workers)
			}
			rep := c.HealthReport()
			for k := 1; k < len(rep.Workers); k++ {
				if rep.Workers[k-1].Addr >= rep.Workers[k].Addr {
					t.Fatalf("report not ordered by address: %+v", rep.Workers)
				}
			}
			first := rep.Workers[0]
			if !strings.HasPrefix(rep.String(), first.Addr+": live=") {
				t.Fatalf("summary does not lead with %s:\n%s", first.Addr, rep)
			}
			if first.CorruptResults != tc.corrupt || first.ConsecutiveFailures != tc.fails {
				t.Fatalf("row %+v, want corrupt=%d fails=%d", first, tc.corrupt, tc.fails)
			}
			if rep.Degraded() != tc.degraded {
				t.Fatalf("Degraded() = %v, want %v:\n%s", rep.Degraded(), tc.degraded, rep)
			}
		})
	}
}

// TestHoldPolicy covers how dial outcomes interact with the hold: a
// successful dial keeps it, and the redial sweep both waits on and extends
// the hold dispatch waits on.
func TestHoldPolicy(t *testing.T) {
	runHoldCases(t,
		holdCase{name: "success clears the hold", conns: []string{"a", "b"},
			steps:   []holdStep{{"fail", "a", 50 * ms}, {"fail", "a", 100 * ms}, {"succeed", "a", 0}, {"fail", "a", 50 * ms}},
			workers: 2, fails: 1, degraded: true},
		holdCase{name: "successful dial keeps the hold", conns: []string{"!up", "b"},
			steps:   []holdStep{{"fail", "up", 50 * ms}, {"redial", "up", 50 * ms}},
			workers: 2, fails: 1, degraded: true},
		holdCase{name: "sweep skips a held address", conns: []string{"!down", "b"},
			steps: []holdStep{{"fail", "down", 50 * ms}, {"fail", "down", 100 * ms}, {"fail", "down", 200 * ms},
				{"fail", "down", 400 * ms}, {"fail", "down", 800 * ms}, {"sweep", "down", 800 * ms}},
			workers: 1, fails: 5, degraded: true},
		holdCase{name: "failed redial extends the hold", conns: []string{"!down", "b"},
			steps:   []holdStep{{"fail", "down", 50 * ms}, {"redial", "down", 100 * ms}, {"redial", "down", 200 * ms}},
			workers: 1, fails: 3, degraded: true},
	)
}

// TestHealthLastWorkerNeverQuarantined checks liveness: dispatch never
// waits on the hold of the only address that can still serve.
func TestHealthLastWorkerNeverQuarantined(t *testing.T) {
	runHoldCases(t,
		holdCase{name: "only address is never held", conns: []string{"a"},
			steps:   []holdStep{{"fail", "a", 0}, {"fail", "a", 0}, {"corrupt", "a", 0}},
			workers: 1, corrupt: 1, fails: 3, degraded: true},
		holdCase{name: "only unheld peer dead", conns: []string{"a", "!b"},
			steps: []holdStep{{"fail", "a", 0}}, workers: 1, fails: 1, degraded: true},
	)
}

// TestHealthReportOrderingAndDegraded checks that report rows come out
// ordered by address whatever the dial order, and that Degraded is set by
// a dead address and clear on a clean cluster.
func TestHealthReportOrderingAndDegraded(t *testing.T) {
	runHoldCases(t,
		holdCase{name: "clean cluster is not degraded", conns: []string{"b", "a"},
			steps: []holdStep{{"succeed", "a", 0}, {"succeed", "b", 0}}, workers: 2},
		holdCase{name: "dead address is degraded", conns: []string{"!b", "a"},
			steps: []holdStep{{"succeed", "a", 0}}, workers: 1, degraded: true},
	)
}

// TestHealthCorruptVerdictsCounted checks that corrupt verdicts are
// counted apart from transport failures but share the failure streak.
func TestHealthCorruptVerdictsCounted(t *testing.T) {
	runHoldCases(t,
		holdCase{name: "corrupt verdicts are counted", conns: []string{"a", "b"},
			steps:   []holdStep{{"corrupt", "a", 50 * ms}, {"fail", "a", 100 * ms}},
			workers: 2, corrupt: 1, fails: 2, degraded: true},
	)
}

// TestHealthFailedProbeDoublesCooldown checks that each failure in a row
// doubles the hold until it stops at the 2 s cap.
func TestHealthFailedProbeDoublesCooldown(t *testing.T) {
	runHoldCases(t,
		holdCase{name: "holds double to the cap", conns: []string{"a", "b"},
			steps: []holdStep{{"fail", "a", 50 * ms}, {"fail", "a", 100 * ms}, {"fail", "a", 200 * ms},
				{"fail", "a", 400 * ms}, {"fail", "a", 800 * ms}, {"fail", "a", 1600 * ms},
				{"fail", "a", 2000 * ms}, {"fail", "a", 2000 * ms}},
			workers: 2, fails: 8, degraded: true},
	)
}
