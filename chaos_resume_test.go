package mce

// Crash-recovery chaos harness: the coordinator process is SIGKILLed at
// randomized points mid-run and must resume from the journal without losing
// or duplicating a single clique. The test binary re-execs itself as the
// coordinator (TestMain intercepts MCE_CHAOS_CHILD) so the kill is a real
// process death — no deferred cleanup, no flushed buffers — and the parent
// asserts the resumed run reproduces the uninterrupted clique set digest and
// skips every journaled-done block (telemetry counters).
//
// The kill-based tests are gated behind MCE_CHAOS=1 (`make chaos`) because
// they fork, poll and kill processes in a loop; tier-1 runs keep the
// in-process crash tests in internal/core instead. On failure, the journal
// and the level logs are copied to $MCE_CHAOS_ARTIFACTS for CI upload.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"mce/internal/cluster"
	"mce/internal/core"
	"mce/internal/decomp"
	"mce/internal/dtree"
	"mce/internal/durable"
	"mce/internal/family"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/runlog"
)

func TestMain(m *testing.M) {
	if os.Getenv("MCE_CHAOS_CHILD") == "1" {
		os.Exit(chaosChild())
	}
	os.Exit(m.Run())
}

// chaosDelay throttles the child's per-block progress so the parent's kill
// reliably lands mid-run; the graph has enough blocks that a full session
// takes a second or two while each individual block stays trivial.
const chaosDelay = 15 * time.Millisecond

func chaosGraph() *Graph { return gen.HolmeKim(400, 6, 0.65, 31) }

// chaosOptions are the plan-affecting options every session — child,
// control and resume — must share, or the journal identity check refuses.
func chaosOptions(dir string) []Option {
	return []Option{WithBlockSize(16), WithParallelism(2), WithCheckpoint(dir)}
}

// throttledExecutor runs blocks one at a time through a single-threaded
// LocalExecutor with a sleep in front of each block it runs, keeping the
// per-block checkpoint observer so done records land as they would in
// production. A block served from the checkpoint is not slowed.
type throttledExecutor struct {
	inner core.LocalExecutor
	delay time.Duration
}

func (e *throttledExecutor) Analyze(ctx context.Context, g *graph.Graph, plan *decomp.Plan, rule dtree.Rule, level int, obs runlog.BatchObserver) ([]family.Window, error) {
	return e.inner.Analyze(ctx, g, plan, rule, level, throttled{obs, e.delay})
}

type throttled struct {
	runlog.BatchObserver
	delay time.Duration
}

func (t throttled) BlockDispatched(id runlog.BlockID, member uint64) (family.Window, bool) {
	w, served := t.BatchObserver.BlockDispatched(id, member)
	if !served {
		time.Sleep(t.delay)
	}
	return w, served
}

// withChaosExecutor and withChaosLatency are test-only options: the public
// surface never exposes an executor hook, but chaos needs to slow the run
// down without changing its plan identity.
func withChaosExecutor(delay time.Duration) Option {
	return func(c *config) error {
		c.core.Executor = &throttledExecutor{inner: core.LocalExecutor{Parallelism: 1}, delay: delay}
		return nil
	}
}

func withChaosLatency(d time.Duration) Option {
	return func(c *config) error {
		c.cliOpts.Latency = d
		return nil
	}
}

// chaosChild is the coordinator the parent kills: one checkpointed run over
// the chaos graph, local or distributed per MCE_CHAOS_WORKERS.
func chaosChild() int {
	dir := os.Getenv("MCE_CHAOS_DIR")
	if dir == "" {
		fmt.Fprintln(os.Stderr, "chaos child: MCE_CHAOS_DIR not set")
		return 1
	}
	opts := chaosOptions(dir)
	if w := os.Getenv("MCE_CHAOS_WORKERS"); w != "" {
		opts = append(opts, WithWorkers(strings.Split(w, ",")...), withChaosLatency(chaosDelay))
	} else {
		opts = append(opts, withChaosExecutor(chaosDelay))
	}
	res, err := Enumerate(chaosGraph(), opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos child:", err)
		return 1
	}
	fmt.Println(len(res.Cliques))
	return 0
}

// cliqueDigest is the sorted-output digest the chaos acceptance criterion
// compares: order-independent, duplicate-sensitive.
func cliqueDigest(cliques [][]int32) [sha256.Size]byte {
	keys := make([]string, len(cliques))
	for i, c := range cliques {
		keys[i] = fmt.Sprint(c)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		io.WriteString(h, k)
		h.Write([]byte{'\n'})
	}
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d
}

// countLoggedBlocks counts the frames in the checkpoint's level logs — one
// per completed block — by walking their length prefixes. A log being
// appended to may end mid-frame; that frame does not count.
func countLoggedBlocks(dir string) int {
	logs, _ := filepath.Glob(filepath.Join(dir, "L*.mcel"))
	n := 0
	for _, path := range logs {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		for len(data) >= durable.FrameHeaderLen {
			end := durable.FrameHeaderLen + int(binary.LittleEndian.Uint32(data))
			if end > len(data) {
				break
			}
			data = data[end:]
			n++
		}
	}
	return n
}

// journalState reads the checkpoint's journal from outside: how many done
// records it holds, and whether some level has done records but no seal
// record — a level killed while its blocks were still being planned and
// analysed. It decodes only the record kind (3 a level's seal, 5 a block's
// done record) and the level that follows it; a torn tail ends the walk.
func journalState(dir string) (done int, unsealed bool) {
	data, err := os.ReadFile(runlog.JournalPath(dir))
	if err != nil || len(data) < 5 {
		return 0, false
	}
	sealed, running := map[uint64]bool{}, map[uint64]bool{}
	frames := durable.NewFrameReader(bytes.NewReader(data[5:]), 1<<20)
	for {
		payload, err := frames.Next()
		if err != nil || len(payload) < 2 {
			break
		}
		level, _ := binary.Uvarint(payload[1:])
		switch payload[0] {
		case 3:
			sealed[level] = true
		case 5:
			running[level] = true
			done++
		}
	}
	for level := range running {
		unsealed = unsealed || !sealed[level]
	}
	return done, unsealed
}

// runChaosChild forks a coordinator session and SIGKILLs it once kill
// reports true (plus extraDelay, so the kill lands at arbitrary points in
// the log/journal commit sequence). Returns true if the session finished
// before the kill landed.
func runChaosChild(t *testing.T, dir string, workers []string, kill func() bool, extraDelay time.Duration) bool {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"MCE_CHAOS_CHILD=1",
		"MCE_CHAOS_DIR="+dir,
		"MCE_CHAOS_WORKERS="+strings.Join(workers, ","),
	)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("chaos child failed on its own: %v\n%s", err, errBuf.String())
			}
			return true
		case <-deadline:
			_ = cmd.Process.Kill()
			<-done
			t.Fatalf("chaos child ran past the 60s deadline\n%s", errBuf.String())
		case <-ticker.C:
			if !kill() {
				continue
			}
			time.Sleep(extraDelay)
			_ = cmd.Process.Kill()
			if err := <-done; err == nil {
				return true // finished in the window before the kill landed
			}
			return false
		}
	}
}

// saveChaosArtifacts copies the journal and the level logs to
// $MCE_CHAOS_ARTIFACTS/<test>/ when the test failed, so CI can upload the
// exact on-disk state that broke recovery.
func saveChaosArtifacts(t *testing.T, dir string) {
	dest := os.Getenv("MCE_CHAOS_ARTIFACTS")
	if dest == "" || !t.Failed() {
		return
	}
	root := filepath.Join(dest, strings.ReplaceAll(t.Name(), "/", "_"))
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out := filepath.Join(root, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Logf("chaos artifacts: %v", err)
	} else {
		t.Logf("chaos artifacts saved to %s", root)
	}
}

// runChaosScenario kills coordinator sessions at randomized points until one
// finishes (or the kill budget is spent), then resumes in-process and holds
// the result to the uninterrupted digest. Satisfies the chaos acceptance
// criteria for one executor flavour. insideLevel kills each session as soon
// as it has journaled a done record of a level it has not sealed, instead
// of after a random number of logged blocks.
func runChaosScenario(t *testing.T, workers []string, insideLevel bool) {
	if os.Getenv("MCE_CHAOS") == "" {
		t.Skip("kill-based chaos harness; run via `make chaos` (MCE_CHAOS=1)")
	}
	g := chaosGraph()
	control, err := Enumerate(g, WithBlockSize(16))
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := cliqueDigest(control.Cliques)

	dir := t.TempDir()
	t.Cleanup(func() { saveChaosArtifacts(t, dir) })

	seed := int64(1)
	if s := os.Getenv("MCE_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			seed = v
		}
	}
	rnd := rand.New(rand.NewSource(seed))

	kills := 0
	for attempt := 0; attempt < 8; attempt++ {
		target := 2 + rnd.Intn(4)
		extra := time.Duration(rnd.Intn(20)) * time.Millisecond
		base := countLoggedBlocks(dir) // frames left by previous sessions
		kill := func() bool { return countLoggedBlocks(dir)-base >= target }
		if insideLevel {
			before, _ := journalState(dir)
			extra, kill = 0, func() bool {
				done, unsealed := journalState(dir)
				return done > before && unsealed
			}
		}
		if runChaosChild(t, dir, workers, kill, extra) {
			break
		}
		kills++
	}
	if kills == 0 {
		t.Fatal("every child session finished before a kill landed; the chaos run exercised nothing")
	}
	t.Logf("killed %d coordinator sessions (seed %d)", kills, seed)
	if _, unsealed := journalState(dir); insideLevel && kills == 8 && !unsealed {
		t.Fatal("the last session was killed inside a level, but the journal has no unsealed level")
	}

	met := NewTelemetryEngine()
	resumeOpts := append(chaosOptions(dir), WithTelemetryEngine(met))
	if len(workers) > 0 {
		resumeOpts = append(resumeOpts, WithWorkers(workers...))
	}
	res, err := Enumerate(g, resumeOpts...)
	if err != nil {
		t.Fatalf("resume after %d kills: %v", kills, err)
	}
	if cliqueDigest(res.Cliques) != wantDigest {
		t.Fatalf("resume after %d kills produced %d cliques with a different digest (control: %d cliques)",
			kills, len(res.Cliques), len(control.Cliques))
	}
	snap := met.Snapshot()
	if snap.CheckpointBlocksSkipped == 0 {
		t.Fatal("resume re-executed every block; nothing was served from the journal")
	}
	if res.Stats.ResumedBlocks != int(snap.CheckpointBlocksSkipped) {
		t.Fatalf("Stats.ResumedBlocks = %d, telemetry CheckpointBlocksSkipped = %d",
			res.Stats.ResumedBlocks, snap.CheckpointBlocksSkipped)
	}
}

// TestChaosKillResumeLocal: coordinator SIGKILLed mid-run with the local
// executor; resume must reproduce the uninterrupted clique digest.
func TestChaosKillResumeLocal(t *testing.T) {
	runChaosScenario(t, nil, false)
}

// TestChaosKillResumeDistributed: same scenario with the work on out-of-
// process cluster workers. The workers live in the parent and survive the
// coordinator's death, so exactly-once depends entirely on the journal —
// a done-but-unjournaled block must be re-dispatched, a journaled one must
// never be.
func TestChaosKillResumeDistributed(t *testing.T) {
	addrs, stop, err := cluster.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	runChaosScenario(t, addrs, false)
}

// TestChaosKillInsideLevelLocal: the coordinator is SIGKILLed while a level
// is running — some of its blocks done, the level not sealed — so the resume
// grows that level again and serves the done blocks by their membership
// digests.
func TestChaosKillInsideLevelLocal(t *testing.T) {
	runChaosScenario(t, nil, true)
}

// TestChaosKillInsideLevelDistributed is the same kill point with the work
// on out-of-process cluster workers.
func TestChaosKillInsideLevelDistributed(t *testing.T) {
	addrs, stop, err := cluster.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	runChaosScenario(t, addrs, true)
}
