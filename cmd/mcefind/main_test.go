package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"mce"
	"mce/internal/cliqdb"
	"mce/internal/durable"
	"mce/internal/gio"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// fromEdges builds a graph on n nodes from an edge list.
func fromEdges(n int, edges []mce.Edge) *mce.Graph {
	b := mce.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// writeTriangleTail writes the 4-node triangle+tail graph and returns its
// path. Cliques: {0,1,2} and {2,3}.
func writeTriangleTail(t *testing.T) string {
	t.Helper()
	g := fromEdges(4, []mce.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	p := filepath.Join(t.TempDir(), "g.txt")
	if err := mce.Save(p, g); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCmd(t); code != 2 {
		t.Fatalf("no args: code %d, want 2", code)
	}
	if code, _, _ := runCmd(t, "-badflag", "x"); code != 2 {
		t.Fatalf("bad flag: code %d", code)
	}
	p := writeTriangleTail(t)
	if code, _, _ := runCmd(t, "-algorithm", "Tomita", p); code != 2 {
		t.Fatalf("algorithm without structure accepted")
	}
}

func TestMissingFile(t *testing.T) {
	code, _, errs := runCmd(t, filepath.Join(t.TempDir(), "absent.txt"))
	if code != 1 || errs == "" {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
}

func TestEnumerateOutput(t *testing.T) {
	p := writeTriangleTail(t)
	code, out, errs := runCmd(t, p)
	if code != 0 {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("out = %q", out)
	}
}

func TestCountAndMinSize(t *testing.T) {
	p := writeTriangleTail(t)
	code, out, _ := runCmd(t, "-count", p)
	if code != 0 || strings.TrimSpace(out) != "2" {
		t.Fatalf("count out = %q", out)
	}
	code, out, _ = runCmd(t, "-count", "-min", "3", p)
	if code != 0 || strings.TrimSpace(out) != "1" {
		t.Fatalf("min-filtered count out = %q", out)
	}
}

func TestStatsToStderr(t *testing.T) {
	p := writeTriangleTail(t)
	code, _, errs := runCmd(t, "-stats", "-count", p)
	if code != 0 || !strings.Contains(errs, "cliques=2") {
		t.Fatalf("stats = %q", errs)
	}
}

func TestPinnedCombo(t *testing.T) {
	p := writeTriangleTail(t)
	code, out, errs := runCmd(t, "-algorithm", "Eppstein", "-structure", "Lists", "-count", p)
	if code != 0 || strings.TrimSpace(out) != "2" {
		t.Fatalf("code=%d out=%q errs=%q", code, out, errs)
	}
	code, _, _ = runCmd(t, "-algorithm", "NoSuch", "-structure", "Lists", "-count", p)
	if code == 0 {
		t.Fatal("bad algorithm accepted")
	}
}

func TestCommunitiesOutput(t *testing.T) {
	// Two triangles sharing node 2.
	g := fromEdges(5, []mce.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 2, V: 3}, {U: 3, V: 4}, {U: 2, V: 4},
	})
	p := filepath.Join(t.TempDir(), "g.txt")
	if err := mce.Save(p, g); err != nil {
		t.Fatal(err)
	}
	code, out, errs := runCmd(t, "-communities", "3", p)
	if code != 0 {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
	if strings.Count(out, "community ") != 2 {
		t.Fatalf("communities out = %q", out)
	}
	if code, _, _ := runCmd(t, "-communities", "1", p); code != 1 {
		t.Fatal("k=1 accepted")
	}
}

func TestLabelsFlag(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "named.txt")
	content := "alice bob\nbob carol\nalice carol\n"
	if err := writeFile(p, content); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCmd(t, "-labels", p)
	if code != 0 || !strings.Contains(out, "alice") {
		t.Fatalf("labels out = %q", out)
	}
}

func TestPartitionDirInput(t *testing.T) {
	g := mce.GenerateSocialNetwork(120, 4, 0.6, 3)
	dir := filepath.Join(t.TempDir(), "parts")
	if err := gio.WritePartitioned(dir, g, 3); err != nil {
		t.Fatal(err)
	}
	code, out, errs := runCmd(t, "-count", dir)
	if code != 0 {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
	n, err := strconv.Atoi(strings.TrimSpace(out))
	if err != nil || n <= 0 {
		t.Fatalf("count out = %q", out)
	}
}

func TestDistributedFlag(t *testing.T) {
	addrs, stop, err := mce.StartLocalWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	p := writeTriangleTail(t)
	code, out, errs := runCmd(t, "-count", "-workers", strings.Join(addrs, ","), p)
	if code != 0 || strings.TrimSpace(out) != "2" {
		t.Fatalf("code=%d out=%q errs=%q", code, out, errs)
	}
	// Every tuning flag of a distributed run is accepted and leaves the
	// answer alone.
	code, out, errs = runCmd(t, "-count", "-workers", strings.Join(addrs, ","), "-task-timeout", "1m", "-task-retries", "5",
		"-reconnect", "-hedge", "-mem-budget-mb", "512", "-ratio", "0.5", "-p", "2", "-intra-par", "2", p)
	if code != 0 || strings.TrimSpace(out) != "2" {
		t.Fatalf("tuned: code=%d out=%q errs=%q", code, out, errs)
	}
	if code, _, _ := runCmd(t, "-count", "-workers", "127.0.0.1:1", p); code != 1 {
		t.Fatal("unreachable worker accepted")
	}
}

func writeFile(p, content string) error {
	return os.WriteFile(p, []byte(content), 0o644)
}

func TestStreamAndFormats(t *testing.T) {
	p := writeTriangleTail(t)
	code, out, errs := runCmd(t, "-stream", "-stats", p)
	if code != 0 {
		t.Fatalf("stream: code=%d errs=%q", code, errs)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 2 {
		t.Fatalf("stream out = %q", out)
	}
	if !strings.Contains(errs, "streamed 2 cliques") {
		t.Fatalf("stream stats = %q", errs)
	}

	code, out, _ = runCmd(t, "-format", "jsonl", p)
	if code != 0 || !strings.Contains(out, `["0","1","2"]`) {
		t.Fatalf("jsonl out = %q", out)
	}
	code, out, _ = runCmd(t, "-stream", "-format", "jsonl", p)
	if code != 0 || !strings.Contains(out, `["2","3"]`) {
		t.Fatalf("stream jsonl out = %q", out)
	}

	if code, _, _ := runCmd(t, "-format", "xml", p); code != 2 {
		t.Fatal("unknown format accepted")
	}
	if code, _, _ := runCmd(t, "-stream", "-count", p); code != 2 {
		t.Fatal("stream+count accepted")
	}
	if code, _, _ := runCmd(t, "-stream", "-communities", "3", p); code != 2 {
		t.Fatal("stream+communities accepted")
	}
}

// TestStreamInterrupted: SIGTERM stops a -stream run and an out-of-core
// (.mceg) run like a batch run — exit 130 and "mcefind: interrupted" — and
// the cliques already written reach stdout whole. The test reads one byte
// and then nothing until the signal is sent, so the binary is held in a
// write on the full pipe with most of its output still to come. The .mceg
// is written by the built mcegen, as a user would write it.
func TestStreamInterrupted(t *testing.T) {
	dir := t.TempDir()
	bin, gen := filepath.Join(dir, "mcefind"), filepath.Join(dir, "mcegen")
	// go test puts its own toolchain first on the PATH of the test binary.
	if out, err := exec.Command("go", "build", "-o", dir, "mce/cmd/mcefind", "mce/cmd/mcegen").CombinedOutput(); err != nil {
		t.Fatalf("build mcefind and mcegen: %v\n%s", err, out)
	}
	txt, disk := filepath.Join(dir, "g.txt"), filepath.Join(dir, "g.mceg")
	if err := mce.Save(txt, mce.GenerateSocialNetwork(50000, 5, 0.7, 42)); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(gen, "-model", "hk", "-n", "50000", "-k", "5", "-p", "0.7", "-seed", "42", "-o", disk).CombinedOutput(); err != nil {
		t.Fatalf("mcegen -o %s: %v\n%s", disk, err, out)
	}
	for name, args := range map[string][]string{"stream": {"-stream", txt}, "outofcore": {disk}} {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(bin, args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			first := make([]byte, 1)
			if _, err := io.ReadFull(stdout, first); err != nil {
				cmd.Process.Kill()
				t.Fatalf("no output before the signal: %v", err)
			}
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			// Give the runtime's signal handler time to cancel the run before
			// the pipe drains and the blocked write returns.
			time.Sleep(200 * time.Millisecond)
			rest, err := io.ReadAll(stdout)
			if err != nil {
				t.Fatal(err)
			}
			var exit *exec.ExitError
			if err := cmd.Wait(); !errors.As(err, &exit) || exit.ExitCode() != exitInterrupted {
				t.Fatalf("exit = %v, want code %d; stderr %q", err, exitInterrupted, stderr.String())
			}
			if !strings.Contains(stderr.String(), "mcefind: interrupted") {
				t.Fatalf("stderr = %q, want the interrupted line", stderr.String())
			}
			if out := append(first, rest...); out[len(out)-1] != '\n' {
				t.Fatalf("stdout (%d bytes) ends mid-line: %q", len(out), out[max(0, len(out)-40):])
			}
		})
	}
}

// hangUpWorker is a worker that completes the handshake and then hangs up
// on the first task it is sent — every block shipped to it is a failed
// round trip. The handshake mirrors cluster's wire format: one durable frame
// each way, whose payload is a kind byte (1 hello, 2 ack), the version
// (u32le, echoed back here) and a reserved zero byte.
func hangUpWorker(t *testing.T) string {
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
			go func() {
				defer conn.Close()
				hello, err := durable.NewFrameReader(conn, 64).Next()
				if err != nil || len(hello) != 6 {
					return
				}
				ack := []byte{2, hello[1], hello[2], hello[3], hello[4], 0}
				if _, err := conn.Write(durable.AppendFrame(nil, ack)); err != nil {
					return
				}
				conn.Read(make([]byte, 1)) // the first task's first byte
			}()
		}
	}()
	return ln.Addr().String()
}

// TestSkipPoisonExitCode pins exit 3 on both output routes: the graph is a
// single block, its one round trip dies, -task-retries 1 makes that a
// poison verdict, and -skip-poison completes the run without it (the second
// worker is the spare that keeps the cluster alive).
func TestSkipPoisonExitCode(t *testing.T) {
	p := writeTriangleTail(t)
	for _, route := range [][]string{nil, {"-stream"}} {
		workers := hangUpWorker(t) + "," + hangUpWorker(t)
		args := append(route, "-m", "100", "-workers", workers, "-task-retries", "1", "-skip-poison", p)
		code, out, errs := runCmd(t, args...)
		if code != exitIncomplete {
			t.Fatalf("%v: code=%d, want %d; errs=%q", route, code, exitIncomplete, errs)
		}
		if out != "" {
			t.Fatalf("%v: the only block was skipped but cliques were printed: %q", route, out)
		}
		if !strings.Contains(errs, "poison task skipped: block 0") || !strings.Contains(errs, "completed with 1 poison-task skip(s)") {
			t.Fatalf("%v: verdicts missing from stderr: %q", route, errs)
		}
	}
}

func TestDiskGraphInput(t *testing.T) {
	g := fromEdges(4, []mce.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	p := filepath.Join(t.TempDir(), "g.mceg")
	if err := mce.SaveDiskGraph(p, g); err != nil {
		t.Fatal(err)
	}
	code, out, errs := runCmd(t, "-count", "-stats", p)
	if code != 0 || strings.TrimSpace(out) != "2" {
		t.Fatalf("mceg count: code=%d out=%q errs=%q", code, out, errs)
	}
	if !strings.Contains(errs, "out-of-core") {
		t.Fatalf("mceg stats = %q", errs)
	}
	code, out, _ = runCmd(t, "-format", "jsonl", p)
	if code != 0 || !strings.Contains(out, `["0","1","2"]`) {
		t.Fatalf("mceg jsonl out = %q", out)
	}
	if code, _, _ := runCmd(t, filepath.Join(t.TempDir(), "absent.mceg")); code != 1 {
		t.Fatal("missing disk graph accepted")
	}
}

func TestStatsTelemetryLines(t *testing.T) {
	p := writeTriangleTail(t)
	code, _, errs := runCmd(t, "-stats", "-count", p)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if !strings.Contains(errs, "telemetry: recursion-nodes=") {
		t.Fatalf("no telemetry summary in stats: %q", errs)
	}
	if !strings.Contains(errs, "combo ") {
		t.Fatalf("no combo distribution in stats: %q", errs)
	}
	if !strings.Contains(errs, "kernel=") {
		t.Fatalf("no kernel/border/visited in level stats: %q", errs)
	}
}

func TestDebugAddrFlag(t *testing.T) {
	p := writeTriangleTail(t)
	code, _, errs := runCmd(t, "-debug-addr", "127.0.0.1:0", "-count", p)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if !strings.Contains(errs, "debug endpoints on http://") {
		t.Fatalf("no debug banner: %q", errs)
	}
	// An unusable address fails fast instead of running without telemetry.
	code, _, _ = runCmd(t, "-debug-addr", "256.256.256.256:99999", "-count", p)
	if code != 1 {
		t.Fatalf("bad debug addr exit = %d, want 1", code)
	}
}

func TestCheckpointFlagValidation(t *testing.T) {
	p := writeTriangleTail(t)
	if code, _, errs := runCmd(t, "-resume", p); code != 2 || !strings.Contains(errs, "-resume needs -checkpoint") {
		t.Fatalf("-resume alone: code %d, errs %q", code, errs)
	}
	dir := filepath.Join(t.TempDir(), "ck")
	if code, _, errs := runCmd(t, "-checkpoint", dir, "-stream", p); code != 2 || !strings.Contains(errs, "-stream") {
		t.Fatalf("-checkpoint with -stream: code %d, errs %q", code, errs)
	}
	if code, _, errs := runCmd(t, "-checkpoint", dir, "-resume", p); code != 1 || !strings.Contains(errs, "no run journal") {
		t.Fatalf("-resume without journal: code %d, errs %q", code, errs)
	}
}

func TestCheckpointResumeRoundTrip(t *testing.T) {
	p := writeTriangleTail(t)
	dir := filepath.Join(t.TempDir(), "ck")
	code, first, errs := runCmd(t, "-checkpoint", dir, "-stats", p)
	if code != 0 {
		t.Fatalf("checkpointed run: code %d, errs %q", code, errs)
	}
	if !strings.Contains(errs, "telemetry: checkpoint commits=") || !strings.Contains(errs, "mean-batch=") {
		t.Fatalf("stats missing the checkpoint commit line: %q", errs)
	}
	if !mce.HasCheckpoint(dir) {
		t.Fatal("run left no journal behind")
	}
	code, second, errs := runCmd(t, "-checkpoint", dir, "-resume", "-stats", p)
	if code != 0 {
		t.Fatalf("resume: code %d, errs %q", code, errs)
	}
	if second != first {
		t.Fatalf("resume output %q differs from original %q", second, first)
	}
	if !strings.Contains(errs, "resuming from checkpoint") {
		t.Fatalf("no resume banner: %q", errs)
	}
	if !strings.Contains(errs, "resumed") || !strings.Contains(errs, "from checkpoint") {
		t.Fatalf("stats missing resumed-blocks line: %q", errs)
	}
}

// TestIndexOutCompilesQueryableIndex runs the full pipeline the serving
// story promises: enumerate a graph, compile -index-out, open the index
// with cliqdb and cross-check its answers against the printed cliques.
func TestIndexOutCompilesQueryableIndex(t *testing.T) {
	p := writeTriangleTail(t)
	idx := filepath.Join(t.TempDir(), "run.cliqdb")
	code, out, errs := runCmd(t, "-index-out", idx, p)
	if code != 0 {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
	if !strings.Contains(errs, "serve with: mced -db") {
		t.Fatalf("no index summary on stderr: %q", errs)
	}
	db, err := cliqdb.Open(idx)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if db.NumCliques() != len(lines) {
		t.Fatalf("index has %d cliques, run printed %d", db.NumCliques(), len(lines))
	}
	// Vertex 2 is in both cliques ({0,1,2} and {2,3}), vertex 3 in one.
	if n := db.CliqueCount(2); n != 2 {
		t.Fatalf("CliqueCount(2) = %d, want 2", n)
	}
	if n := db.CliqueCount(3); n != 1 {
		t.Fatalf("CliqueCount(3) = %d, want 1", n)
	}

	// -index-out also writes the serving segments the hint names, and a
	// rebuild from them reproduces the index byte-identically — the
	// self-healing guarantee over the real pipeline's artifacts, not
	// test-authored segments.
	segs := idx + ".segments"
	if !strings.Contains(errs, "-segments "+segs) {
		t.Fatalf("serve hint does not name the serving segments: %q", errs)
	}
	healed := filepath.Join(t.TempDir(), "healed.cliqdb")
	if _, err := cliqdb.CompileSegments(segs, healed); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(healed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("index rebuilt from serving segments is not byte-identical to the original")
	}
}

func TestIndexOutRefusedForStreamAndOutOfCore(t *testing.T) {
	p := writeTriangleTail(t)
	idx := filepath.Join(t.TempDir(), "run.cliqdb")
	if code, _, errs := runCmd(t, "-stream", "-index-out", idx, p); code != 2 || !strings.Contains(errs, "-index-out") {
		t.Fatalf("stream+index-out: code=%d errs=%q", code, errs)
	}
	if code, _, errs := runCmd(t, "-index-out", idx, "g.mceg"); code != 2 || !strings.Contains(errs, "-index-out") {
		t.Fatalf("mceg+index-out: code=%d errs=%q", code, errs)
	}
}

// TestDiskGraphFlags: an out-of-core run honours -p, -algorithm and
// -structure, and refuses — exit 2, naming the flag — every flag it would
// otherwise ignore.
func TestDiskGraphFlags(t *testing.T) {
	g := fromEdges(4, []mce.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	p := filepath.Join(t.TempDir(), "g.mceg")
	if err := mce.SaveDiskGraph(p, g); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-p", "2"},
		{"-algorithm", "Tomita", "-structure", "BitSets"},
		{"-algorithm", "XPivot", "-structure", "Lists", "-p", "1"},
	} {
		code, out, errs := runCmd(t, append(append([]string{"-count"}, args...), p)...)
		if code != 0 || strings.TrimSpace(out) != "2" {
			t.Errorf("%v: code=%d out=%q errs=%q", args, code, out, errs)
		}
	}
	if code, _, errs := runCmd(t, "-count", "-algorithm", "NoSuch", "-structure", "Lists", p); code != 1 || !strings.Contains(errs, "NoSuch") {
		t.Errorf("unknown algorithm: code=%d errs=%q", code, errs)
	}
	for _, args := range [][]string{
		{"-workers", "127.0.0.1:1"},
		{"-task-timeout", "1s"},
		{"-task-retries", "5"},
		{"-reconnect"},
		{"-hedge"},
		{"-mem-budget-mb", "64"},
		{"-intra-par", "2"},
		{"-labels"},
		{"-communities", "3"},
		{"-stream"},
		{"-checkpoint", t.TempDir()},
		{"-resume"},
		{"-skip-poison"},
		{"-index-out", filepath.Join(t.TempDir(), "x.cliqdb")},
		{"-debug-addr", "127.0.0.1:0"},
	} {
		code, out, errs := runCmd(t, append(append([]string{"-count"}, args...), p)...)
		if code != 2 || out != "" || !strings.Contains(errs, args[0]) || !strings.Contains(errs, "out-of-core") {
			t.Errorf("%v: code=%d out=%q errs=%q; want exit 2 naming %s", args, code, out, errs, args[0])
		}
	}
}

// TestWorkerFlagsNeedWorkers: the flags that tune distributed runs are
// refused, exit 2 and named, when no -workers are given.
func TestWorkerFlagsNeedWorkers(t *testing.T) {
	p := writeTriangleTail(t)
	for _, args := range [][]string{
		{"-task-timeout", "1s"},
		{"-task-retries", "5"},
		{"-reconnect"},
		{"-skip-poison"},
		{"-hedge"},
	} {
		code, out, errs := runCmd(t, append(append([]string{"-count"}, args...), p)...)
		if code != 2 || out != "" || !strings.Contains(errs, args[0]) || !strings.Contains(errs, "-workers") {
			t.Errorf("%v: code=%d out=%q errs=%q; want exit 2 naming %s", args, code, out, errs, args[0])
		}
	}
}
