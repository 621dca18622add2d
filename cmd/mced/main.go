// Command mced is the clique query daemon: it serves a compiled cliqdb
// index (see mcefind -index-out) over HTTP/JSON, turning a finished
// enumeration run into an online service — which cliques contain a vertex,
// which cliques two vertices share, the largest cliques, and the k-clique
// communities of the graph.
//
// Usage:
//
//	mced -db run.cliqdb [-segments run.cliqdb.segments] [-listen :9877]
//	     [-deadline 2s] [-max-inflight 64] [-mem-budget-mb 0] [-cache 256]
//	     [-max-results 1000] [-drain-timeout 5s] [-debug-addr :6060]
//
// The daemon is built for production failure modes, not just the happy
// path:
//
//   - The index is verified end to end at open. With -segments (the
//     serving segment directory mcefind -index-out writes beside the
//     index — not a run checkpoint's directory, which holds level-local
//     resume state and is refused), a torn or bit-flipped index is
//     rebuilt automatically; the compile is deterministic, so the healed
//     index is byte-identical to the lost one.
//   - Every query carries a context deadline (-deadline); requests that
//     blow it get 504 instead of holding a connection forever.
//   - Admission control sheds load before it hurts: a bounded in-flight
//     slot pool (-max-inflight) plus an advisory heap budget
//     (-mem-budget-mb, via resguard) turn overload into fast 429s with
//     Retry-After rather than slow 200s or OOM.
//   - A bounded LRU result cache (-cache entries) with singleflight
//     collapses duplicate in-flight queries into one computation.
//   - POST /v1/rebuild recompiles the index from segments while the stale
//     (but checksummed) index keeps answering — degraded, never down.
//   - On SIGINT/SIGTERM the daemon stops accepting requests and finishes
//     the in-flight ones (up to -drain-timeout); a second signal
//     force-exits.
//
// -debug-addr exposes live telemetry at /debug/vars (per-endpoint request
// counts and latency, shed/timeout/cache/rebuild counters, the admitted
// query latency histogram) plus net/http/pprof under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mce/internal/cliqdb"
	"mce/internal/resguard"
	"mce/internal/telemetry"
)

func main() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig, nil))
}

// testHookDB, when non-nil, replaces the opened index: run serves it
// directly and never touches -db. It exists so the overload and drain tests
// can push a database with controllable latency through the full stack
// (admission, deadlines, drain); production never sets it.
var testHookDB queryDB

// run is main with its environment injected, so tests can drive the daemon
// end to end: args are the command-line arguments, sig delivers shutdown
// signals, and a non-nil started receives the bound listener and debug
// addresses once the daemon is serving. A second signal on sig force-exits
// without waiting for the drain.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal, started chan<- [2]string) int {
	fs := flag.NewFlagSet("mced", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbPath := fs.String("db", "", "cliqdb index file to serve (required)")
	segments := fs.String("segments", "", "serving segment directory backing self-healing and /v1/rebuild, as written by mcefind -index-out (empty = disabled)")
	listen := fs.String("listen", ":9877", "HTTP address to listen on")
	deadline := fs.Duration("deadline", 2*time.Second, "per-request deadline; queries over it get 504")
	maxInflight := fs.Int("max-inflight", 64, "max queries in flight; excess gets 429 with Retry-After")
	memBudgetMB := fs.Int("mem-budget-mb", 0, "shed new queries while heap exceeds this budget (0 = disabled)")
	cacheSize := fs.Int("cache", 256, "result cache entries (0 = disabled; duplicate in-flight queries still collapse)")
	maxResults := fs.Int("max-results", 1000, "max cliques or communities per response; larger answers are truncated and flagged")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "how long shutdown waits for in-flight requests")
	debugAddr := fs.String("debug-addr", "", "serve JSON telemetry and pprof on this HTTP address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dbPath == "" && testHookDB == nil {
		fmt.Fprintln(stderr, "mced: -db is required")
		fs.Usage()
		return 2
	}

	met := telemetry.NewEngine()

	if *segments != "" {
		// A run checkpoint's directory holds resume state, not the final
		// clique family; refuse it now rather than at the first self-heal
		// or /v1/rebuild.
		if err := cliqdb.CheckServingSegments(*segments); err != nil {
			fmt.Fprintln(stderr, "mced:", err)
			return 2
		}
	}

	var db queryDB
	if testHookDB != nil {
		db = testHookDB
	} else if *segments != "" {
		real, rebuilt, err := cliqdb.OpenOrRebuild(*dbPath, *segments)
		if err != nil {
			fmt.Fprintln(stderr, "mced:", err)
			return 1
		}
		if rebuilt {
			met.Inc(telemetry.IndexRebuilds)
			fmt.Fprintf(stderr, "mced: index was missing or corrupt; rebuilt from %s\n", *segments)
		}
		db = real
	} else {
		real, err := cliqdb.Open(*dbPath)
		if err != nil {
			fmt.Fprintln(stderr, "mced:", err)
			return 1
		}
		db = real
	}

	srv := newServer(db, serverConfig{
		met:         met,
		guard:       resguard.New(int64(*memBudgetMB)<<20, met),
		deadline:    *deadline,
		maxInflight: *maxInflight,
		cacheSize:   *cacheSize,
		maxResults:  *maxResults,
		dbPath:      *dbPath,
		segDir:      *segments,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "mced:", err)
		return 1
	}
	fmt.Fprintf(stdout, "mced: serving %d cliques over %d vertices on http://%s/v1/\n",
		db.NumCliques(), db.NumVertices(), ln.Addr())

	boundDebug := ""
	if *debugAddr != "" {
		addr, stopDebug, err := telemetry.ServeDebug(*debugAddr, met.Snapshot)
		if err != nil {
			ln.Close()
			fmt.Fprintln(stderr, "mced:", err)
			return 1
		}
		defer stopDebug()
		boundDebug = addr
		fmt.Fprintf(stdout, "mced: debug endpoints on http://%s/debug/vars and /debug/pprof/\n", addr)
	}
	if started != nil {
		started <- [2]string{ln.Addr().String(), boundDebug}
	}

	hs := &http.Server{Handler: srv.routes()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "mced:", err)
		return 1
	case s, ok := <-sig:
		if !ok {
			hs.Close()
			return 1
		}
		fmt.Fprintf(stdout, "mced: %v received, draining in-flight requests (repeat to force exit)\n", s)
		forced := make(chan struct{})
		//lint:ignore golifecycle the force-exit watcher lives until the process exits; that is its entire job
		go func() {
			if s, ok := <-sig; ok {
				fmt.Fprintf(stderr, "mced: %v received again, forcing exit\n", s)
				close(forced)
				hs.Close()
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			select {
			case <-forced:
			default:
				fmt.Fprintln(stderr, "mced: drain:", err)
			}
			return 1
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "mced:", err)
			return 1
		}
		fmt.Fprintln(stdout, "mced: drained, bye")
		return 0
	}
}
