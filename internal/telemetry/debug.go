package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"
)

// ServeDebug starts an HTTP debug server on addr (":0" picks an ephemeral
// port) and returns the bound address plus a stop function. It serves:
//
//	/debug/vars    — an expvar-style JSON document: the live telemetry
//	                 Snapshot from snap, plus process runtime stats
//	/debug/pprof/  — the standard net/http/pprof profile index (heap,
//	                 goroutine, profile, trace, ...)
//
// The endpoint is opt-in (mceworker/mcefind -debug-addr) and unauthenticated;
// bind it to localhost or a trusted network, as with any pprof server.
func ServeDebug(addr string, snap func() Snapshot) (boundAddr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: debug listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		payload := map[string]any{
			"cmdline":   os.Args,
			"telemetry": snap(),
			"runtime": map[string]any{
				"goroutines":     runtime.NumGoroutine(),
				"gomaxprocs":     runtime.GOMAXPROCS(0),
				"heap_alloc":     ms.HeapAlloc,
				"heap_objects":   ms.HeapObjects,
				"total_alloc":    ms.TotalAlloc,
				"num_gc":         ms.NumGC,
				"pause_total_ns": ms.PauseTotalNs,
			},
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(payload)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	// The server goroutine's lifetime is owned by the returned stop
	// function: srv.Close tears down the listener and Serve returns.
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
