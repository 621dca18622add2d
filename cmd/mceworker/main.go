// Command mceworker is a block-analysis worker: it listens on a TCP address
// and serves BLOCK-ANALYSIS tasks for coordinators (mcefind -workers, or the
// mce library's WithWorkers option). A worker keeps the level graphs
// coordinators send it (least recently used evicted past a fixed cap) and
// induces each task's block from them; run one per machine, as the paper
// does with its 10-node OpenMPI cluster.
//
// Usage:
//
//	mceworker -listen :9876 [-max-conns n] [-drain-timeout d] [-debug-addr :6060]
//
// -debug-addr starts an HTTP debug server exposing the worker's live
// telemetry as JSON at /debug/vars (tasks served, errors, panics, bytes on
// the wire, per-combo block timings, MCE recursion counters) plus the
// standard net/http/pprof profiling endpoints under /debug/pprof/.
//
// On SIGINT/SIGTERM the worker stops accepting connections, finishes its
// in-flight tasks (up to -drain-timeout) and ships their results before
// exiting; a second signal force-exits immediately.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mce/internal/cluster"
	"mce/internal/telemetry"
)

func main() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig, nil))
}

// run is main with its environment injected, so tests can drive the worker
// end to end: args are the command-line arguments, sig delivers shutdown
// signals, and a non-nil started receives the bound listener and debug
// addresses once the worker is serving. A second signal on sig force-exits
// by returning 1 without waiting for the drain.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal, started chan<- [2]string) int {
	fs := flag.NewFlagSet("mceworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", ":9876", "TCP address to listen on")
	maxConns := fs.Int("max-conns", 0, "max concurrent coordinator connections (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "how long shutdown waits for in-flight tasks")
	debugAddr := fs.String("debug-addr", "", "serve JSON telemetry and pprof on this HTTP address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "mceworker:", err)
		return 1
	}
	fmt.Fprintf(stdout, "mceworker: serving block analysis on %s\n", ln.Addr())
	w := &cluster.Worker{MaxConns: *maxConns, DrainTimeout: *drainTimeout}

	boundDebug := ""
	if *debugAddr != "" {
		eng := telemetry.NewEngine()
		w.Metrics = eng
		addr, stopDebug, err := telemetry.ServeDebug(*debugAddr, eng.Snapshot)
		if err != nil {
			ln.Close()
			fmt.Fprintln(stderr, "mceworker:", err)
			return 1
		}
		defer stopDebug()
		boundDebug = addr
		fmt.Fprintf(stdout, "mceworker: debug endpoints on http://%s/debug/vars and /debug/pprof/\n", addr)
	}
	if started != nil {
		started <- [2]string{ln.Addr().String(), boundDebug}
	}

	drained := make(chan struct{})
	forced := make(chan struct{})
	//lint:ignore golifecycle the signal watcher lives until the first signal or until the caller closes sig; that is its entire job
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(stdout, "mceworker: %v received, draining in-flight tasks (repeat to force exit)\n", s)
		//lint:ignore golifecycle the force-exit watcher lives until the process exits; that is its entire job
		go func() {
			if s, ok := <-sig; ok {
				fmt.Fprintf(stderr, "mceworker: %v received again, forcing exit\n", s)
				close(forced)
			}
		}()
		w.Close() // blocks until drained (bounded by -drain-timeout)
		close(drained)
	}()

	if err := w.Serve(ln); err != nil {
		fmt.Fprintln(stderr, "mceworker:", err)
		return 1
	}
	// Serve only returns cleanly after Close was called; wait for the
	// drain so in-flight results reach their coordinators before exit.
	select {
	case <-drained:
	case <-forced:
		return 1
	}
	fmt.Fprintln(stdout, "mceworker: drained, bye")
	return 0
}
