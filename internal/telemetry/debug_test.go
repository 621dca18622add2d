package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
)

func TestServeDebugVarsAndPprof(t *testing.T) {
	e := NewEngine()
	e.Add(BlocksBuilt, 3)
	e.Add(TasksServed, 9)

	addr, stop, err := ServeDebug("127.0.0.1:0", e.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) (int, []byte) {
		t.Helper()
		cli := &http.Client{Timeout: 5 * time.Second}
		resp, err := cli.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	var doc struct {
		Telemetry Snapshot       `json:"telemetry"`
		Runtime   map[string]any `json:"runtime"`
		Cmdline   []string       `json:"cmdline"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("vars is not JSON: %v\n%s", err, body)
	}
	if doc.Telemetry.BlocksBuilt != 3 || doc.Telemetry.TasksServed != 9 {
		t.Fatalf("vars snapshot wrong: %+v", doc.Telemetry)
	}
	if doc.Runtime["goroutines"] == nil || len(doc.Cmdline) == 0 {
		t.Fatalf("vars misses runtime/cmdline sections: %s", body)
	}

	// Live updates show up on the next poll.
	e.Inc(BlocksBuilt)
	_, body = get("/debug/vars")
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Telemetry.BlocksBuilt != 4 {
		t.Fatalf("vars is stale: %+v", doc.Telemetry)
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, _ := get("/debug/pprof/goroutine?debug=1"); code != http.StatusOK {
		t.Fatalf("goroutine profile status %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", code)
	}

	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	// After stop the listener is gone.
	cli := &http.Client{Timeout: time.Second}
	if _, err := cli.Get("http://" + addr + "/debug/vars"); err == nil {
		t.Fatal("server still answering after stop")
	}
}

func TestServeDebugBadAddr(t *testing.T) {
	if _, _, err := ServeDebug("256.256.256.256:99999", NewEngine().Snapshot); err == nil {
		t.Fatal("bad address accepted")
	}
}
