package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mce/internal/cluster/faultconn"
	"mce/internal/core"
	"mce/internal/decomp"
	"mce/internal/dtree"
	"mce/internal/durable"
	"mce/internal/family"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/mcealg"
)

// startFaultyWorkers launches n workers whose listeners inject faults per
// fopts (each worker's schedule offset by a large per-worker seed stride so
// the workers draw independent schedules). Workers drain fast on cleanup so
// injected hangs cannot stall test teardown.
func startFaultyWorkers(t *testing.T, n int, fopts faultconn.Options) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		o := fopts
		o.Seed = fopts.Seed + int64(i)*1_000_000
		w := &Worker{DrainTimeout: 100 * time.Millisecond}
		go func() { _ = w.Serve(faultconn.Listener(ln, o)) }()
		t.Cleanup(func() { _ = w.Close() })
	}
	return addrs
}

// countCliques flattens a per-block result into a clique set keyed by
// membership, failing on duplicates.
func cliqueSet(t *testing.T, out []family.Window) map[string]bool {
	t.Helper()
	set := map[string]bool{}
	for _, cs := range out {
		for _, c := range cs.Views(nil) {
			k := key(c)
			if set[k] {
				t.Fatalf("duplicate clique {%s}", k)
			}
			set[k] = true
		}
	}
	return set
}

// TestChaosCompleteness is the acceptance test for the fault-injection
// harness: a cluster whose links randomly delay, corrupt, hang and drop
// connections must still produce exactly the clique set of the in-process
// LocalExecutor, through deadline-driven retirement, checksum detection,
// retries and auto-reconnection.
func TestChaosCompleteness(t *testing.T) {
	addrs := startFaultyWorkers(t, 3, faultconn.Options{
		Seed:        42,
		HangProb:    0.005,
		CloseProb:   0.02,
		CorruptProb: 0.02,
		DelayProb:   0.05,
		Delay:       500 * time.Microsecond,
		SkipOps:     3, // let the handshake through: hello header, hello payload, ack
	})
	client, err := Dial(addrs, ClientOptions{
		TaskTimeout:   500 * time.Millisecond,
		TaskRetries:   -1, // unlimited: faults are transient, so retries always win
		AutoReconnect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g := gen.HolmeKim(300, 5, 0.7, 11)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	remote, err := analyzeBlocks(context.Background(), client, g, blocks, combo)
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	local, err := analyzeBlocks(context.Background(), &core.LocalExecutor{}, g, blocks, combo)
	if err != nil {
		t.Fatal(err)
	}
	got, want := cliqueSet(t, remote), cliqueSet(t, local)
	if len(got) != len(want) {
		t.Fatalf("chaos run found %d cliques, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("clique {%s} lost under fault injection", k)
		}
	}
}

// TestChaosHungWorker pins the TaskTimeout envelope: a worker that accepts
// the handshake and then hangs on every operation must be retired by the
// deadline, and the batch must complete on the healthy worker — in bounded
// time, where without deadlines it would block forever.
func TestChaosHungWorker(t *testing.T) {
	// SkipOps covers the handshake (two reads for the hello frame — header,
	// then payload — and one write for the ack); whichever op of the first
	// round trip lands after the exemption hangs, so no round trip can ever
	// complete.
	hungAddrs := startFaultyWorkers(t, 1, faultconn.Options{
		Seed:     1,
		HangProb: 1.0,
		SkipOps:  3,
	})
	okAddrs, stop, err := StartLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	const timeout = 300 * time.Millisecond
	client, err := Dial(append(hungAddrs, okAddrs...), ClientOptions{TaskTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g := gen.ErdosRenyi(100, 0.1, 13)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	t0 := time.Now()
	out, err := analyzeBlocks(context.Background(), client, g, blocks, combo)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatalf("batch with hung worker failed: %v", err)
	}
	// The hung worker costs at most one TaskTimeout (its only in-flight
	// task); everything else proceeds on the healthy worker concurrently.
	// The generous multiplier absorbs scheduler noise under -race.
	if elapsed > 10*timeout {
		t.Fatalf("batch took %v, want within the %v deadline envelope", elapsed, timeout)
	}
	if total, want := len(cliqueSet(t, out)), len(mcealg.ReferenceCollect(g)); total != want {
		t.Fatalf("got %d cliques, want %d", total, want)
	}
	var hungDead bool
	for _, s := range client.HealthReport().Workers {
		if s.Addr == hungAddrs[0] && s.Live == 0 {
			hungDead = true
		}
	}
	if !hungDead {
		t.Fatal("hung worker was not retired")
	}
}

// TestChaosWorkerRestart kills the only worker, restarts one on the same
// port, and expects an in-flight batch to recover through AutoReconnect
// within the 5s all-dead grace.
func TestChaosWorkerRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	w1 := &Worker{DrainTimeout: 50 * time.Millisecond}
	go func() { _ = w1.Serve(ln) }()

	client, err := Dial([]string{addr}, ClientOptions{
		AutoReconnect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Kill the worker, then restart on the same port (Go listeners set
	// SO_REUSEADDR, so the rebind succeeds immediately).
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	w2 := &Worker{}
	go func() { _ = w2.Serve(ln2) }()
	t.Cleanup(func() { _ = w2.Close() })

	g := gen.ErdosRenyi(80, 0.12, 17)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	out, err := analyzeBlocks(context.Background(), client, g, blocks, combo)
	if err != nil {
		t.Fatalf("batch across worker restart failed: %v", err)
	}
	if total, want := len(cliqueSet(t, out)), len(mcealg.ReferenceCollect(g)); total != want {
		t.Fatalf("got %d cliques across restart, want %d", total, want)
	}
}

// fakeWorker runs handle on every accepted connection — a scriptable stand-in
// for protocol-level misbehaviour no real Worker produces.
func fakeWorker(t *testing.T, handle func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handle(conn)
		}
	}()
	return ln.Addr().String()
}

// TestDialVersionMismatch: a worker acking another version — version 4,
// which expects induced subgraphs, included — is refused, and the error
// names both versions.
func TestDialVersionMismatch(t *testing.T) {
	for _, version := range []int{99, 4} {
		addr := fakeWorker(t, func(conn net.Conn) {
			defer conn.Close()
			newPeer(conn).acceptHello(version)
		})
		_, err := Dial([]string{addr}, ClientOptions{})
		if want := fmt.Sprintf("version %d, want %d", version, protocolVersion); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want %q", err, want)
		}
	}
}

func TestDialTruncatedHello(t *testing.T) {
	addr := fakeWorker(t, func(conn net.Conn) {
		conn.Close() // accept, then hang up before any handshake bytes
	})
	_, err := Dial([]string{addr}, ClientOptions{})
	if err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("err = %v, want handshake failure", err)
	}
}

// TestDialHandshakeHang: a worker that accepts but never answers must not
// stall Dial past the dial budget — the handshake shares the dial's
// deadline, here its context's.
func TestDialHandshakeHang(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	addr := fakeWorker(t, func(conn net.Conn) {
		<-block
		conn.Close()
	})
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err := DialContext(ctx, []string{addr}, ClientOptions{})
	if err == nil {
		t.Fatal("Dial to mute worker succeeded")
	}
	if elapsed := time.Since(t0); elapsed > 3*time.Second {
		t.Fatalf("Dial hung %v waiting for a mute worker", elapsed)
	}
}

// TestPoisonTask: a block whose round trip dies on every worker must fail
// the batch deterministically once the retry budget is spent, with the
// per-attempt causes attached.
func TestPoisonTask(t *testing.T) {
	// Workers that handshake correctly and then hang up on the first task.
	handle := swallowOneTask
	addrs := []string{fakeWorker(t, handle), fakeWorker(t, handle), fakeWorker(t, handle)}
	client, err := Dial(addrs, ClientOptions{TaskRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g := gen.ErdosRenyi(30, 0.3, 19)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	blocks = blocks[:1]
	_, err = analyzeBlocks(context.Background(), client, g, blocks, combo)
	var poison *PoisonTaskError
	if !errors.As(err, &poison) {
		t.Fatalf("err = %v, want *PoisonTaskError", err)
	}
	if poison.Block != 0 || poison.Attempts != 2 || len(poison.Causes) != 2 {
		t.Fatalf("poison = %+v, want block 0 with 2 recorded attempts", poison)
	}
}

// TestPoisonTaskSkipped: with SkipPoisonTasks a poison verdict no longer
// fails the batch — the block's slot stays nil, the verdict is recorded for
// the caller, and the batch completes.
func TestPoisonTaskSkipped(t *testing.T) {
	handle := swallowOneTask
	// Each swallowed task costs one connection for good, so the worker pool
	// must cover blocks × retries deaths with one spare to stay alive.
	addrs := []string{fakeWorker(t, handle), fakeWorker(t, handle), fakeWorker(t, handle)}
	client, err := Dial(addrs, ClientOptions{
		TaskRetries:     1,
		SkipPoisonTasks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g := gen.ErdosRenyi(30, 0.3, 19)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	blocks = blocks[:2]
	out, err := analyzeBlocks(context.Background(), client, g, blocks, combo)
	if err != nil {
		t.Fatalf("skip-poison batch failed: %v", err)
	}
	for i, cliques := range out {
		if cliques != (family.Window{}) {
			t.Fatalf("skipped block %d has a non-empty result", i)
		}
	}
	verdicts := client.PoisonVerdicts()
	if len(verdicts) != 2 {
		t.Fatalf("recorded %d poison verdicts, want 2", len(verdicts))
	}
	for _, v := range verdicts {
		if v.Attempts != 1 || len(v.Causes) != 1 {
			t.Fatalf("verdict = %+v, want 1 recorded attempt", v)
		}
	}
}

// TestPoisonTaskUnlimitedRetries: with a negative budget the batch keeps
// retrying until capacity runs out, and fails with the all-dead error
// instead of a poison verdict.
func TestPoisonTaskUnlimitedRetries(t *testing.T) {
	handle := swallowOneTask
	addrs := []string{fakeWorker(t, handle), fakeWorker(t, handle)}
	client, err := Dial(addrs, ClientOptions{TaskRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g := gen.ErdosRenyi(30, 0.3, 19)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	_, err = analyzeBlocks(context.Background(), client, g, blocks[:1], combo)
	var poison *PoisonTaskError
	if err == nil || errors.As(err, &poison) {
		t.Fatalf("err = %v, want all-dead failure without poison verdict", err)
	}
}

// TestPoisonTaskCorruptSameConnection: a corrupt verdict keeps the
// connection, so one connection can spend the whole retry budget — the
// budget counts failed attempts, not distinct connections.
func TestPoisonTaskCorruptSameConnection(t *testing.T) {
	// Every read and write after the handshake flips a byte, and only ever
	// a checksummed payload byte, so both round trips end in a corrupt
	// verdict with the stream in sync — whatever the seed's schedule.
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			addrs := startFaultyWorkers(t, 1, faultconn.Options{Seed: seed, CorruptProb: 1, SpareHeaders: true, SkipOps: 3})
			client, err := Dial(addrs, ClientOptions{TaskRetries: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			g := gen.ErdosRenyi(30, 0.3, 19)
			blocks, combo := makeBlocks(g, g.MaxDegree()+1)
			_, err = analyzeBlocks(context.Background(), client, g, blocks[:1], combo)
			var poison *PoisonTaskError
			if !errors.As(err, &poison) {
				t.Fatalf("err = %v, want *PoisonTaskError", err)
			}
			if poison.Attempts != 2 || len(poison.Causes) != 2 {
				t.Fatalf("poison = %+v, want 2 recorded attempts", poison)
			}
			for _, cause := range poison.Causes {
				if !strings.HasPrefix(cause, addrs[0]+": ") || !strings.Contains(cause, "corrupted in flight") {
					t.Fatalf("cause %q, want a corrupt verdict from %s", cause, addrs[0])
				}
			}
			if client.Workers() != 1 {
				t.Fatalf("Workers = %d, want the connection still alive", client.Workers())
			}
		})
	}
}

// TestWorkerChecksumRejectsTamperedTask: a task frame whose payload does
// not match its checksum is answered with the Corrupt verdict, not executed,
// and the connection stays in sync for the next task.
func TestWorkerChecksumRejectsTamperedTask(t *testing.T) {
	p, cl, _ := dialPipe(t)
	defer cl.Close()

	task := triangleTask(3)
	payload, err := task.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	frame := durable.AppendFrame(nil, payload)
	frame[len(frame)-1] ^= 0x01 // a byte of the level graph flips in flight
	if _, err := cl.Write(frame); err != nil {
		t.Fatal(err)
	}
	res, err := p.recvResult()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Corrupt || res.Err != "" || res.Cliques.Count != 0 {
		t.Fatalf("result = %+v, want Corrupt verdict", res)
	}
	if err := p.sendTask(&task); err != nil {
		t.Fatal(err)
	}
	if res, err := p.recvResult(); err != nil || res.ID != 3 || res.Corrupt || res.Cliques.Count != 1 {
		t.Fatalf("result after the corrupt frame = %+v, %v", res, err)
	}
}

// waitGoroutines waits for the process to be back at baseline goroutines —
// whatever a closed Worker started has exited — and fails with every stack
// if it is not within 30s (a block analysed past the drain runs to its end).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestWorkerDrainWaitsForInflight: Close must block while a task is in
// flight and return promptly once it finishes, and leave no goroutine of
// the worker behind.
func TestWorkerDrainWaitsForInflight(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w := &Worker{DrainTimeout: 5 * time.Second}
	if !w.beginTask() {
		t.Fatal("beginTask refused on a fresh worker")
	}
	closed := make(chan struct{})
	go func() {
		w.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a task in flight")
	case <-time.After(100 * time.Millisecond):
	}
	w.endTask()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the last task ended")
	}
	if w.beginTask() {
		t.Fatal("beginTask accepted work on a closed worker")
	}
	waitGoroutines(t, baseline)
}

// TestWorkerDrainTimeout: a stuck task cannot block Close past DrainTimeout.
func TestWorkerDrainTimeout(t *testing.T) {
	w := &Worker{DrainTimeout: 100 * time.Millisecond}
	if !w.beginTask() {
		t.Fatal("beginTask refused")
	}
	t0 := time.Now()
	w.Close() // the task never ends; Close must give up at the timeout
	if elapsed := time.Since(t0); elapsed > 3*time.Second {
		t.Fatalf("Close took %v despite a %v drain timeout", elapsed, w.DrainTimeout)
	}
	w.endTask() // late finish after a timed-out drain must not panic
}

func TestStartLocalStopIdempotent(t *testing.T) {
	_, stop, err := StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // second stop must be a no-op, not a double-close panic
}

// TestWorkerCloseIdempotent: a second Close is a no-op, and Close on a
// serving worker — one connection analysing a long block past the drain
// timeout, one parked in Serve's MaxConns admission wait for that
// connection's slot — ends Serve at once, without waiting for the slot, and
// leaves no goroutine of the worker behind once the block is done.
func TestWorkerCloseIdempotent(t *testing.T) {
	w := &Worker{}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w = &Worker{MaxConns: 1, DrainTimeout: 10 * time.Millisecond}
	served := make(chan error, 1)
	go func() { served <- w.Serve(ln) }()
	dial := func() (net.Conn, peer) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		p := newPeer(c)
		if err := p.sendHello(protocolVersion, kindHello); err != nil {
			t.Fatal(err)
		}
		return c, p
	}
	busy, p := dial()
	defer busy.Close()
	if _, err := p.recvHello(kindAck); err != nil {
		t.Fatal(err)
	}
	// The whole of a dense G(200, 0.5) as one all-kernel block: a task that
	// runs for a good while after the drain gives up on it.
	dense := gen.ErdosRenyi(200, 0.5, 5)
	task := blockTask{
		Graph: keyOf(dense),
		Rule:  dtree.Rule{Mode: dtree.RuleAsIs, Combo: mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}},
		Orig:  make([]int32, dense.N()),
		Class: make([]byte, dense.N()),
		Level: dense,
	}
	for v := range task.Orig {
		task.Orig[v] = int32(v)
	}
	if err := p.sendTask(&task); err != nil {
		t.Fatal(err)
	}
	inflight := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.inflight
	}
	for deadline := time.Now().Add(5 * time.Second); inflight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never took the task")
		}
	}
	parked, q := dial() // accepted, then waits for the one slot
	defer parked.Close()
	parked.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := q.recvHello(kindAck); err == nil {
		t.Fatal("a second connection was served beyond MaxConns=1")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if inflight() == 0 {
		t.Fatal("Serve returned only once the in-flight block gave its slot back: the admission wait ignores Close")
	}
	waitGoroutines(t, baseline)
}

// TestWorkerMaxConns: with MaxConns=1 a second connection is accepted but
// not served until the first hangs up.
func TestWorkerMaxConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{MaxConns: 1}
	go func() { _ = w.Serve(ln) }()
	t.Cleanup(func() { _ = w.Close() })

	dial := func() net.Conn {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	handshake := func(c net.Conn, deadline time.Duration) error {
		p := newPeer(c)
		if err := p.sendHello(protocolVersion, kindHello); err != nil {
			return err
		}
		c.SetReadDeadline(time.Now().Add(deadline))
		defer c.SetReadDeadline(time.Time{})
		_, err := p.recvHello(kindAck)
		return err
	}

	first := dial()
	if err := handshake(first, 2*time.Second); err != nil {
		t.Fatalf("first connection refused: %v", err)
	}
	second := dial()
	defer second.Close()
	if err := handshake(second, 300*time.Millisecond); err == nil {
		t.Fatal("second connection served beyond MaxConns=1")
	}
	// Releasing the slot lets the queued connection through; its hello is
	// already buffered, so only the ack read remains.
	first.Close()
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	version, err := newPeer(second).recvHello(kindAck)
	if err != nil {
		t.Fatalf("queued connection never served after slot freed: %v", err)
	}
	if version != protocolVersion {
		t.Fatalf("ack = version %d", version)
	}
}

func TestDialReportDegraded(t *testing.T) {
	addrs, stop, err := StartLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	deadAddr := ln.Addr().String()
	ln.Close()

	client, err := Dial([]string{addrs[0], deadAddr}, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	r := client.DialReport()
	if len(r.Addrs) != 2 || r.Connected != 1 || len(r.Failures) != 1 || !r.Degraded() {
		t.Fatalf("report = %+v, want degraded 1/2", r)
	}
	if r.Failures[0].Addr != deadAddr || r.Failures[0].Err == nil {
		t.Fatalf("failure = %+v, want %s", r.Failures[0], deadAddr)
	}

	healthy, err := Dial(addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if r := healthy.DialReport(); r.Degraded() || r.Connected != 1 {
		t.Fatalf("healthy report = %+v", r)
	}
}

func TestTaskDeadlineResolution(t *testing.T) {
	const work = 500 // a block's members plus their degree sum

	c := &Client{opts: ClientOptions{TaskTimeout: -1}}
	if d := c.taskDeadline(work); d != 0 {
		t.Fatalf("negative TaskTimeout gave deadline %v, want disabled", d)
	}
	c = &Client{opts: ClientOptions{TaskTimeout: 7 * time.Second}}
	if d := c.taskDeadline(work); d != 7*time.Second {
		t.Fatalf("explicit TaskTimeout gave %v", d)
	}
	c = &Client{}
	base := c.taskDeadline(work)
	if base < 30*time.Second {
		t.Fatalf("derived deadline %v below the 30s floor", base)
	}
	c = &Client{opts: ClientOptions{Latency: time.Second}}
	if d := c.taskDeadline(work); d < base+2*time.Second {
		t.Fatalf("derived deadline %v ignores simulated latency (base %v)", d, base)
	}
	if c.taskDeadline(1_000_000) <= c.taskDeadline(work) {
		t.Fatal("derived deadline does not scale with block size")
	}
	// The work is the block's members and their degree sum in the level
	// graph: a star's hub weighs its whole row.
	star := graph.NewBuilder(5)
	for v := int32(1); v < 5; v++ {
		star.AddEdge(0, v)
	}
	lv := &level{g: star.Build()}
	if got := lv.work(&decomp.Block{Orig: []int32{0, 3}}); got != 2+4+1 {
		t.Fatalf("work of the hub and a leaf = %d, want 7", got)
	}
}

func TestAnalyzeBlocksContextPreCancelled(t *testing.T) {
	addrs, stop, err := StartLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client, err := Dial(addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.ErdosRenyi(40, 0.2, 23)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	if _, err := analyzeBlocks(ctx, client, g, blocks, combo); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAnalyzeBlocksContextCancelMidRun(t *testing.T) {
	addrs, stop, err := StartLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// Latency stretches the batch so the cancel lands mid-flight.
	client, err := Dial(addrs, ClientOptions{Latency: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g := gen.HolmeKim(300, 5, 0.7, 29)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	if len(blocks) < 4 {
		t.Skip("not enough blocks to cancel mid-run")
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err = analyzeBlocks(ctx, client, g, blocks, combo)
	elapsed := time.Since(t0)
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to unwind", elapsed)
	}
}
