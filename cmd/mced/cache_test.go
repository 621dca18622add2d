package main

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestCacheDoHitsWhatARacingCallerCached drives do's cache-hit branch: a
// caller that reaches do after another caller stored the same key — the
// race between get and do while the first waited for admission — is served
// from the cache, with telemetry off, and its own computation never runs.
func TestCacheDoHitsWhatARacingCallerCached(t *testing.T) {
	c := newResultCache(4, nil)
	first := c.do("k", func() result { return result{status: 200, body: []byte("first")} })
	got := c.do("k", func() result {
		t.Error("a cached key was computed again")
		return result{}
	})
	if got.status != 200 || string(got.body) != "first" || string(first.body) != "first" {
		t.Fatalf("do on a cached key = %d %q, want 200 %q", got.status, got.body, "first")
	}
}

// TestCacheDoSharesAnInFlightCall drives do's singleflight branch with
// telemetry off: a second caller that arrives while the first is computing
// the same key waits for it and returns its answer, and runs nothing.
func TestCacheDoSharesAnInFlightCall(t *testing.T) {
	c := newResultCache(4, nil)
	started, release := make(chan struct{}), make(chan struct{})
	firstDone := make(chan result)
	go func() {
		firstDone <- c.do("k", func() result {
			close(started)
			<-release
			return result{status: 200, body: []byte("shared")}
		})
	}()
	<-started // the call is registered and computing
	secondDone := make(chan result)
	go func() {
		secondDone <- c.do("k", func() result {
			t.Error("a caller sharing an in-flight call computed it again")
			return result{}
		})
	}()
	waitParkedInDo(t)
	close(release)
	for _, got := range []result{<-firstDone, <-secondDone} {
		if got.status != 200 || string(got.body) != "shared" {
			t.Fatalf("do = %d %q, want 200 %q", got.status, got.body, "shared")
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.calls) != 0 || len(c.items) != 1 {
		t.Fatalf("after the call: %d in flight, %d cached; want 0 and 1", len(c.calls), len(c.items))
	}
}

// waitParkedInDo returns once some goroutine is blocked in resultCache.do
// itself on a channel receive — the wait for an in-flight call's result.
func waitParkedInDo(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		dump := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(dump, "\n\n") {
			header, rest, _ := strings.Cut(g, "\n")
			top, _, _ := strings.Cut(rest, "\n")
			if strings.Contains(header, "[chan receive") && strings.Contains(top, ".(*resultCache).do(") {
				return
			}
		}
		runtime.Gosched()
	}
	t.Fatal("the second caller never waited on the in-flight call")
}
