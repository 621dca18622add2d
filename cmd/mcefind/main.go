// Command mcefind enumerates all maximal cliques of a network stored as an
// edge list (SNAP style), as the paper's ⟨n1, e, n2⟩ triple format
// (".triples" extension), as a directory of part-*.triples files (the
// distributed layout of §6.2), or as a disk graph (".mceg", written by
// mcegen or SaveDiskGraph) enumerated out of core. An out-of-core run takes
// only -m, -ratio, -algorithm, -structure, -p, -min, -count, -stats and
// -format, and refuses any other flag. -task-timeout, -task-retries,
// -reconnect, -skip-poison and -hedge tune distributed runs and are refused
// without -workers.
//
// Usage:
//
//	mcefind [flags] <graph-file-or-partition-dir>
//
//	-m int            block size m (default: ratio × max degree)
//	-ratio float      m/d ratio when -m is not given (default 0.5)
//	-algorithm s      pin one MCE algorithm (BKPivot|Tomita|Eppstein|XPivot)
//	-structure s      pin one structure (Matrix|Lists|BitSets)
//	-workers list     comma-separated worker addresses for distributed runs
//	-task-timeout d   per-task round-trip deadline (default: derived; <0 disables)
//	-task-retries k   failed attempts per block before it is declared
//	                  poison (default 3; <0 unlimited)
//	-reconnect        re-dial dead workers once their address's hold runs
//	                  out (50ms after a failure, doubling to 2s)
//	-hedge            dispatch a block once more when it is in flight past
//	                  twice the batch's p90 round trip (at least 25ms);
//	                  first result wins, output unchanged
//	-mem-budget-mb n  pause block dispatch while the heap exceeds n MiB
//	                  (backpressure instead of OOM; 0 = no budget)
//	-p int            local parallelism (default GOMAXPROCS)
//	-min int          minimum clique size to print (default 1)
//	-count            print only the number of cliques
//	-stats            print decomposition statistics to stderr
//	-labels           print original node labels instead of dense IDs
//	-communities k    print k-clique communities instead of cliques
//	-format f         clique output format: text (default) or jsonl
//	-stream           stream cliques as they are found (bounded memory)
//	-checkpoint DIR   journal run progress into DIR and resume completed
//	                  blocks from it on restart (crash-safe runs)
//	-resume           require prior state in -checkpoint DIR (refuse to
//	                  start a run from scratch)
//	-skip-poison      record poison-task verdicts and keep going instead of
//	                  failing the run; completing with skips exits 3, with
//	                  -stream too (the cliques already printed are then an
//	                  incomplete set)
//	-index-out PATH   also compile the clique set into a cliqdb index at
//	                  PATH plus serving segments at PATH.segments (serve
//	                  with mced); dense IDs, not -labels
//	-debug-addr a     serve live JSON telemetry (/debug/vars) and pprof
//	                  (/debug/pprof/) on this HTTP address while running
//
// Output: one clique per line, members space-separated (or one JSON array
// per line with -format jsonl).
//
// Exit codes: 0 on success, 1 on errors, 2 on usage errors, 3 when the run
// completed but skipped poison tasks (-skip-poison) — the clique set is
// incomplete — 4 when the -checkpoint directory is refused (it belongs to
// a different graph or different options, or its journal is unreadable —
// point -checkpoint at a fresh directory or re-run the original command),
// and 130 when interrupted by SIGINT/SIGTERM (with -checkpoint, progress
// is saved and the resume command is printed; with -workers, the
// per-worker health summary is printed too).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"mce"
	"mce/internal/cliqdb"
	"mce/internal/cliqstore"
	"mce/internal/telemetry"
)

// Exit codes beyond the conventional 0/1/2.
const (
	// exitIncomplete: the run finished but poison-task skips left the
	// clique set incomplete (-skip-poison).
	exitIncomplete = 3
	// exitCheckpointRefused: the -checkpoint directory belongs to a
	// different run (or its journal is unreadable) and resuming from it
	// would be wrong; nothing was computed.
	exitCheckpointRefused = 4
	// exitInterrupted mirrors the shell convention for SIGINT (128+2).
	exitInterrupted = 130
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcefind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		m           = fs.Int("m", 0, "block size (0 = derive from -ratio)")
		ratio       = fs.Float64("ratio", 0, "m/d ratio (0 = default 0.5)")
		algorithm   = fs.String("algorithm", "", "pin the MCE algorithm")
		structure   = fs.String("structure", "", "pin the adjacency structure")
		workers     = fs.String("workers", "", "comma-separated worker addresses")
		taskTimeout = fs.Duration("task-timeout", 0, "per-task round-trip deadline (0 = derived, negative = disabled)")
		taskRetries = fs.Int("task-retries", 0, "per-block failed-attempt budget (0 = default 3, negative = unlimited)")
		reconnect   = fs.Bool("reconnect", false, "re-dial dead workers once their address's hold runs out")
		hedge       = fs.Bool("hedge", false, "speculatively re-dispatch straggling blocks (first result wins)")
		memBudgetMB = fs.Int64("mem-budget-mb", 0, "pause dispatch while the heap exceeds this many MiB (0 = no budget)")
		par         = fs.Int("p", 0, "local parallelism")
		intraPar    = fs.Int("intra-par", 0, "work-stealing workers inside each block enumeration (0/1 = sequential; output is identical at any width)")
		minSize     = fs.Int("min", 1, "minimum clique size to print")
		countOnly   = fs.Bool("count", false, "print only the clique count")
		stats       = fs.Bool("stats", false, "print run statistics to stderr")
		labels      = fs.Bool("labels", false, "print original labels")
		commK       = fs.Int("communities", 0, "print k-clique communities for this k instead of cliques")
		format      = fs.String("format", "text", "clique output format: text or jsonl")
		stream      = fs.Bool("stream", false, "stream cliques as they are found (bounded memory)")
		checkpoint  = fs.String("checkpoint", "", "journal run progress into this directory and resume from it")
		resume      = fs.Bool("resume", false, "require prior run state in the -checkpoint directory")
		skipPoison  = fs.Bool("skip-poison", false, "skip poison tasks instead of failing the run (exit 3 on skips)")
		indexOut    = fs.String("index-out", "", "compile the clique set into a cliqdb index at this path (serve with mced)")
		debugAddr   = fs.String("debug-addr", "", "serve JSON telemetry and pprof on this HTTP address (empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mcefind [flags] <graph-file-or-partition-dir>")
		fs.Usage()
		return 2
	}

	if *format != "text" && *format != "jsonl" {
		fmt.Fprintf(stderr, "mcefind: unknown format %q (want text or jsonl)\n", *format)
		return 2
	}
	if (*algorithm == "") != (*structure == "") {
		fmt.Fprintln(stderr, "mcefind: -algorithm and -structure must be given together")
		return 2
	}
	// The options both routes honour.
	var opts []mce.Option
	if *m > 0 {
		opts = append(opts, mce.WithBlockSize(*m))
	}
	if *ratio > 0 {
		opts = append(opts, mce.WithBlockRatio(*ratio))
	}
	if *algorithm != "" {
		opts = append(opts, mce.WithAlgorithm(*algorithm, *structure))
	}
	if *par > 0 {
		opts = append(opts, mce.WithParallelism(*par))
	}

	// Disk graphs (SaveDiskGraph / mcegen -o x.mceg) run fully out of core,
	// which has no use for any other flag: refuse them rather than run
	// without them.
	if strings.HasSuffix(fs.Arg(0), ".mceg") {
		if bad := givenFlags(fs, func(name string) bool { return !slices.Contains(outOfCoreFlags, name) }); len(bad) > 0 {
			fmt.Fprintf(stderr, "mcefind: out-of-core (.mceg) runs do not support %s\n", strings.Join(bad, ", "))
			return 2
		}
		return runOutOfCore(fs.Arg(0), opts, *minSize, *countOnly, *stats, *format, stdout, stderr)
	}
	if bad := givenFlags(fs, func(name string) bool { return slices.Contains(workerFlags, name) }); len(bad) > 0 && *workers == "" {
		fmt.Fprintf(stderr, "mcefind: %s tune distributed runs and need -workers\n", strings.Join(bad, ", "))
		return 2
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(stderr, "mcefind: -resume needs -checkpoint DIR")
		return 2
	}
	if *checkpoint != "" && *stream {
		fmt.Fprintln(stderr, "mcefind: -checkpoint cannot combine with -stream (a resume would re-emit cliques already printed)")
		return 2
	}
	if *indexOut != "" && *stream {
		fmt.Fprintln(stderr, "mcefind: -index-out cannot combine with -stream (the index compiler needs the full clique set in memory)")
		return 2
	}
	if *resume && !mce.HasCheckpoint(*checkpoint) {
		fmt.Fprintf(stderr, "mcefind: -resume: no run journal in %s\n", *checkpoint)
		return 1
	}

	g, labelMap, err := loadAny(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "mcefind:", err)
		return 1
	}

	// healthSummary captures the per-worker health report of a distributed
	// run; the interrupt and degraded-completion paths print it.
	var healthSummary *mce.HealthReport
	if *workers != "" {
		opts = append(opts, mce.WithWorkers(strings.Split(*workers, ",")...))
		if *taskTimeout != 0 {
			opts = append(opts, mce.WithTaskTimeout(*taskTimeout))
		}
		if *taskRetries != 0 {
			opts = append(opts, mce.WithTaskRetries(*taskRetries))
		}
		if *reconnect {
			opts = append(opts, mce.WithAutoReconnect())
		}
		if *hedge {
			opts = append(opts, mce.WithHedgedDispatch())
		}
		opts = append(opts, mce.WithWorkerHealthReport(func(r mce.HealthReport) {
			healthSummary = &r
		}))
		// A degraded start (some workers unreachable) proceeds on the
		// survivors, but say so instead of just running slow.
		opts = append(opts, mce.WithWorkerReport(func(r mce.DialReport) {
			for _, f := range r.Failures {
				fmt.Fprintf(stderr, "mcefind: warning: worker %s unreachable: %v\n", f.Addr, f.Err)
			}
			if r.Degraded() {
				fmt.Fprintf(stderr, "mcefind: warning: degraded start: %d of %d worker addresses reachable\n",
					len(r.Addrs)-len(r.Failures), len(r.Addrs))
			}
		}))
	}
	if *intraPar > 0 {
		opts = append(opts, mce.WithIntraBlockParallelism(*intraPar))
	}
	if *memBudgetMB > 0 {
		opts = append(opts, mce.WithMemoryBudget(*memBudgetMB<<20))
	}
	if *checkpoint != "" {
		if mce.HasCheckpoint(*checkpoint) {
			fmt.Fprintf(stderr, "mcefind: resuming from checkpoint %s\n", *checkpoint)
		}
		opts = append(opts, mce.WithCheckpoint(*checkpoint),
			// A mid-run checkpoint write failure (full disk, yanked
			// permissions) is degraded, not fatal: warn and keep going.
			mce.WithCheckpointWarning(func(err error) {
				fmt.Fprintf(stderr, "mcefind: warning: checkpointing disabled (%v); the run continues without crash safety\n", err)
			}))
	}
	var poisonVerdicts []mce.PoisonVerdict
	if *skipPoison {
		opts = append(opts, mce.WithSkipPoisonTasks(),
			mce.WithPoisonReport(func(vs []mce.PoisonVerdict) { poisonVerdicts = vs }))
	}

	// The debug server and the run share one engine, so /debug/vars shows
	// the enumeration's live counters; -stats reuses the same snapshot.
	var eng *mce.TelemetryEngine
	if *debugAddr != "" || *stats {
		eng = mce.NewTelemetryEngine()
		opts = append(opts, mce.WithTelemetryEngine(eng))
	}
	if *debugAddr != "" && eng != nil {
		addr, stopDebug, err := telemetry.ServeDebug(*debugAddr, eng.Snapshot)
		if err != nil {
			fmt.Fprintln(stderr, "mcefind:", err)
			return 1
		}
		defer stopDebug()
		fmt.Fprintf(stderr, "mcefind: debug endpoints on http://%s/debug/vars and /debug/pprof/\n", addr)
	}

	name := func(v int32) string {
		if *labels {
			return labelMap.Label(v)
		}
		return fmt.Sprint(v)
	}

	// finish reports poison-task skips and picks the exit code: a run that
	// completed but skipped blocks has an incomplete clique set, which must
	// not look like success to scripts.
	finish := func(skipped int) int {
		if skipped == 0 {
			return 0
		}
		for _, v := range poisonVerdicts {
			fmt.Fprintf(stderr, "mcefind: poison task skipped: block %d failed on %d workers: %s\n",
				v.Block, v.Attempts, strings.Join(v.Causes, "; "))
		}
		fmt.Fprintf(stderr, "mcefind: completed with %d poison-task skip(s); the clique set is incomplete\n",
			skipped)
		return exitIncomplete
	}

	if *stream {
		if *commK > 0 || *countOnly {
			fmt.Fprintln(stderr, "mcefind: -stream cannot combine with -communities or -count")
			return 2
		}
		w := bufio.NewWriter(stdout)
		defer w.Flush()
		st, err := mce.EnumerateStream(g, func(c []int32, _ int) {
			if len(c) < *minSize {
				return
			}
			writeClique(w, c, *format, name)
		}, opts...)
		if err != nil {
			fmt.Fprintln(stderr, "mcefind:", err)
			return 1
		}
		if *stats {
			fmt.Fprintf(stderr, "streamed %d cliques over %d levels\n",
				st.TotalCliques, len(st.Levels))
			printTelemetry(stderr, st.Telemetry)
		}
		return finish(st.SkippedBlocks)
	}

	// SIGINT/SIGTERM cancel the run cleanly: in-flight batches stop, and
	// with -checkpoint every completed block is already durable, so the
	// interrupted run is resumable from exactly where it died.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	t0 := time.Now()
	res, err := mce.EnumerateContext(ctx, g, opts...)
	if err != nil {
		if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			fmt.Fprintln(stderr, "mcefind: interrupted")
			printHealthSummary(stderr, healthSummary)
			if *checkpoint != "" {
				fmt.Fprintf(stderr, "mcefind: progress saved; resume with: mcefind -checkpoint %s -resume %s\n",
					*checkpoint, fs.Arg(0))
			}
			return exitInterrupted
		}
		if errors.Is(err, mce.ErrCheckpointMismatch) {
			fmt.Fprintln(stderr, "mcefind:", err)
			fmt.Fprintf(stderr, "mcefind: refusing to resume from %s; point -checkpoint at a fresh directory, or re-run with the original graph and options\n",
				*checkpoint)
			return exitCheckpointRefused
		}
		fmt.Fprintln(stderr, "mcefind:", err)
		return 1
	}
	elapsed := time.Since(t0)
	if res.Stats.CheckpointDegraded {
		fmt.Fprintf(stderr, "mcefind: warning: the run completed but checkpointing was disabled mid-run; %s holds only a partial journal\n",
			*checkpoint)
	}
	if healthSummary != nil && healthSummary.Degraded() {
		printHealthSummary(stderr, healthSummary)
	}

	if *stats {
		s := res.Stats
		fmt.Fprintf(stderr, "nodes=%d edges=%d maxdeg=%d m=%d levels=%d cliques=%d hub-only=%d fallback=%v elapsed=%v\n",
			g.N(), g.M(), s.MaxDegree, s.BlockSize, len(s.Levels),
			s.TotalCliques, s.HubCliques, s.CoreFallback, elapsed.Round(time.Millisecond))
		if s.ResumedBlocks > 0 {
			fmt.Fprintf(stderr, "resumed %d blocks from checkpoint\n", s.ResumedBlocks)
		}
		for i, lvl := range s.Levels {
			// decomp is the serial prefix (cut + grow, wall); Σinduce and
			// Σselect are summed over the workers inside analysis. members,
			// arena and arenas say how the level's family was held.
			fmt.Fprintf(stderr, "  level %d: nodes=%d feasible=%d hubs=%d blocks=%d kernel=%d border=%d visited=%d cliques=%d members=%d arena=%.2fMiB arenas=%d decomp=%v (cut=%v grow=%v) analysis=%v (Σinduce=%v Σselect=%v)\n",
				i, lvl.Nodes, lvl.Feasible, lvl.Hubs, lvl.Blocks,
				lvl.Kernel, lvl.Border, lvl.Visited, lvl.Cliques,
				lvl.Members, float64(lvl.ArenaBytes)/(1<<20), lvl.Arenas,
				lvl.Decomp.Round(time.Millisecond), lvl.CutTime.Round(time.Microsecond),
				lvl.BlocksTime.Round(time.Millisecond), lvl.Analysis.Round(time.Millisecond),
				lvl.InduceTime.Round(time.Millisecond), lvl.SelectTime.Round(time.Millisecond))
		}
		printTelemetry(stderr, s.Telemetry)
	}

	if *indexOut != "" {
		if res.Stats.SkippedBlocks > 0 {
			// An index silently missing cliques would serve wrong answers
			// forever; an incomplete run gets no index.
			fmt.Fprintf(stderr, "mcefind: not writing %s: %d poison-task skip(s) left the clique set incomplete\n",
				*indexOut, res.Stats.SkippedBlocks)
		} else {
			ist, err := cliqdb.Build(res.Cliques, *indexOut)
			if err != nil {
				fmt.Fprintln(stderr, "mcefind:", err)
				return 1
			}
			// The serving segments beside the index back mced's self-healing
			// with the final clique family. A run checkpoint's level logs
			// can't: they hold level-local, pre-filter resume state, and
			// cliqdb refuses to compile anything out of that directory.
			segOut := *indexOut + ".segments"
			if err := cliqstore.WriteDir(segOut, res.Cliques); err != nil {
				fmt.Fprintln(stderr, "mcefind:", err)
				return 1
			}
			fmt.Fprintf(stderr, "mcefind: index %s: %d cliques over %d vertices, %d bytes, digest %08x; serve with: mced -db %s -segments %s\n",
				*indexOut, ist.Cliques, ist.Vertices, ist.Bytes, ist.Digest, *indexOut, segOut)
		}
	}

	if *commK > 0 {
		comms, err := mce.Communities(res, *commK)
		if err != nil {
			fmt.Fprintln(stderr, "mcefind:", err)
			return 1
		}
		w := bufio.NewWriter(stdout)
		defer w.Flush()
		for i, c := range comms {
			fmt.Fprintf(w, "community %d (%d nodes, %d cliques):", i, len(c.Nodes), c.Cliques)
			for _, v := range c.Nodes {
				fmt.Fprintf(w, " %s", name(v))
			}
			fmt.Fprintln(w)
		}
		return finish(res.Stats.SkippedBlocks)
	}

	if *countOnly {
		printed := 0
		for _, c := range res.Cliques {
			if len(c) >= *minSize {
				printed++
			}
		}
		fmt.Fprintln(stdout, printed)
		return finish(res.Stats.SkippedBlocks)
	}

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	for _, c := range res.Cliques {
		if len(c) < *minSize {
			continue
		}
		writeClique(w, c, *format, name)
	}
	return finish(res.Stats.SkippedBlocks)
}

// printHealthSummary renders the per-worker health report of a distributed
// run: which workers the run leaned on, which it benched, and why.
func printHealthSummary(w io.Writer, r *mce.HealthReport) {
	if r == nil || len(r.Workers) == 0 {
		return
	}
	fmt.Fprintln(w, "mcefind: worker health:")
	for _, line := range strings.Split(r.String(), "\n") {
		fmt.Fprintf(w, "  %s\n", line)
	}
}

// printTelemetry summarises a run's final telemetry snapshot on stderr:
// engine counters, the per-block latency distribution and the decision
// tree's combo pick distribution.
func printTelemetry(w io.Writer, s *mce.TelemetrySnapshot) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "telemetry: recursion-nodes=%d pivots=%d cut=%v grow=%v Σinduce=%v Σselect=%v filter=%v filtered-hub-cliques=%d\n",
		s.RecursionNodes, s.PivotSelections,
		time.Duration(s.CutNs).Round(time.Microsecond), time.Duration(s.BlocksNs).Round(time.Microsecond),
		time.Duration(s.InduceNs).Round(time.Microsecond), time.Duration(s.SelectNs).Round(time.Microsecond),
		time.Duration(s.FilterNs).Round(time.Microsecond), s.HubCliquesFiltered)
	fmt.Fprintf(w, "telemetry: family cliques=%d members=%d arena=%.2fMiB\n",
		s.CliquesFound, s.FamilyMembers, float64(s.FamilyArenaBytes)/(1<<20))
	if s.BlockNs.Count > 0 {
		fmt.Fprintf(w, "telemetry: block latency mean=%v p50=%v p95=%v max=%v\n",
			time.Duration(s.BlockNs.Mean()).Round(time.Microsecond),
			time.Duration(s.BlockNs.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(s.BlockNs.Quantile(0.95)).Round(time.Microsecond),
			time.Duration(s.BlockNs.Max).Round(time.Microsecond))
	}
	if s.CheckpointCommits > 0 {
		fmt.Fprintf(w, "telemetry: checkpoint commits=%d mean-batch=%.1f log=%.2fMiB barrier-wait=%v\n",
			s.CheckpointCommits, float64(s.CheckpointCommitBlocks)/float64(s.CheckpointCommits),
			float64(s.CheckpointLogBytes)/(1<<20), time.Duration(s.CheckpointBarrierWaitNs).Round(time.Microsecond))
	}
	if s.BytesSent > 0 || s.BytesReceived > 0 {
		fmt.Fprintf(w, "telemetry: wire sent=%dB received=%dB round-trips=%d retries=%d reconnects=%d\n",
			s.BytesSent, s.BytesReceived, s.RoundTripNs.Count, s.TaskRetries, s.Reconnects)
	}
	for _, c := range s.Combos {
		fmt.Fprintf(w, "  combo %s: picks=%d blocks=%d total=%v\n",
			c.Combo, c.Picks, c.Blocks, time.Duration(c.TotalNs).Round(time.Microsecond))
	}
}

// writeClique renders one clique in the selected format: space-separated
// members ("text") or a JSON array of member labels per line ("jsonl").
func writeClique(w io.Writer, c []int32, format string, name func(int32) string) {
	if format == "jsonl" {
		names := make([]string, len(c))
		for i, v := range c {
			names[i] = name(v)
		}
		data, err := json.Marshal(names)
		if err != nil {
			return // string slices cannot fail to marshal
		}
		w.Write(data)
		io.WriteString(w, "\n")
		return
	}
	for i, v := range c {
		if i > 0 {
			io.WriteString(w, " ")
		}
		io.WriteString(w, name(v))
	}
	io.WriteString(w, "\n")
}

// Flags an out-of-core run honours, and flags that only tune distributed
// runs.
var (
	outOfCoreFlags = []string{"m", "ratio", "algorithm", "structure", "p", "min", "count", "stats", "format"}
	workerFlags    = []string{"task-timeout", "task-retries", "reconnect", "skip-poison", "hedge"}
)

// givenFlags lists, as "-name", the flags given on the command line whose
// names match.
func givenFlags(fs *flag.FlagSet, match func(name string) bool) []string {
	var names []string
	fs.Visit(func(f *flag.Flag) {
		if match(f.Name) {
			names = append(names, "-"+f.Name)
		}
	})
	return names
}

// runOutOfCore streams cliques straight from a disk-resident graph.
func runOutOfCore(path string, opts []mce.Option, minSize int, countOnly, stats bool, format string, stdout, stderr io.Writer) int {
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	idName := func(v int32) string { return fmt.Sprint(v) }
	count := 0
	st, err := mce.EnumerateOutOfCore(path, func(c []int32, _ int) {
		if len(c) < minSize {
			return
		}
		count++
		if !countOnly {
			writeClique(w, c, format, idName)
		}
	}, opts...)
	if err != nil {
		fmt.Fprintln(stderr, "mcefind:", err)
		return 1
	}
	if countOnly {
		fmt.Fprintln(w, count)
	}
	if stats {
		fmt.Fprintf(stderr, "out-of-core: %d cliques (%d hub-only), %d blocks, %d disk reads\n",
			st.TotalCliques, st.HubCliques, st.Blocks, st.DiskReads)
	}
	return 0
}

// loadAny loads a single graph file, or merges a partition directory.
func loadAny(path string) (*mce.Graph, *mce.LabelMap, error) {
	st, err := os.Stat(path)
	if err == nil && st.IsDir() {
		return mce.LoadPartitioned(path)
	}
	return mce.Load(path)
}
