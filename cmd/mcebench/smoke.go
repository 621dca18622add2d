// The -smoke mode is the CI benchmark gate: a small deterministic workload
// whose best-of-N wall time is normalized by a calibration run on the same
// machine, so the checked-in baseline is portable across runner hardware.
// The gate fails when the normalized time regresses past -regress, or when
// the clique count drifts from the baseline (a correctness canary: the
// workload is fully deterministic, so any drift is a bug, not noise).
package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"time"

	"mce/internal/core"
	"mce/internal/gen"
	"mce/internal/telemetry"
)

// The smoke workload and the calibration workload are both Holme–Kim graphs
// (the corpus generator): the calibration one is small enough to be noise
// but big enough to exercise the same decomposition + block-analysis path,
// so the wall/calib ratio cancels out machine speed.
const (
	smokeNodes = 5000
	smokeDeg   = 6
	smokeTriad = 0.7
	smokeSeed  = 42
	smokeRatio = 0.3

	calibNodes = 1200
	calibDeg   = 5
	calibTriad = 0.6
	calibSeed  = 7

	// The dense-block scenario: an Erdős–Rényi graph dense enough that no
	// node is feasible at the default m, so the run's one level is the
	// terminal level, cut again with every node feasible — and on this
	// graph that cut is a single 200-node block, the exact shape
	// intra-block parallelism exists for. It runs twice, sequential and
	// with a 4-wide work-stealing pool, and gates on three things: the run
	// is that one block, the FNV digests of the two output streams are
	// bit-identical (determinism is a hard contract, not a statistic), and
	// on machines with enough cores the parallel run is actually faster
	// (-par-floor).
	denseNodes   = 200
	denseEdgeP   = 0.5
	denseSeed    = 2016
	denseWorkers = 4

	// parFloorMinCPUs is the smallest runtime.NumCPU() at which the speedup
	// floor is enforced: below it the pool is time-slicing one or two
	// cores, where a speedup is physically impossible and the digest check
	// is the only meaningful gate.
	parFloorMinCPUs = 4

	smokeSchema = 2
)

// smokeGraph pins the workload identity into the report; a baseline from a
// different workload must not silently gate a new one.
type smokeGraph struct {
	Nodes int     `json:"nodes"`
	Deg   int     `json:"deg"`
	Triad float64 `json:"triad"`
	Seed  int64   `json:"seed"`
	Ratio float64 `json:"ratio"`
}

// parScenario records the dense-block sequential-vs-parallel comparison.
// Digest and Cliques are machine-independent (the workload is
// deterministic), so the baseline gates on them exactly; the timing fields
// are evidence, compared only within this run (Speedup), never across
// machines.
type parScenario struct {
	Nodes         int     `json:"nodes"`
	EdgeP         float64 `json:"edge_p"`
	Seed          int64   `json:"seed"`
	Workers       int     `json:"workers"`
	Cliques       int     `json:"cliques"`
	Digest        string  `json:"digest"`
	SeqBestNs     int64   `json:"seq_best_ns"`
	ParBestNs     int64   `json:"par_best_ns"`
	Speedup       float64 `json:"speedup"`
	NumCPU        int     `json:"num_cpu"`
	FloorEnforced bool    `json:"floor_enforced"`
	Floor         float64 `json:"floor"`
}

type smokeReport struct {
	Schema     int                `json:"schema"`
	Graph      smokeGraph         `json:"graph"`
	Cliques    int                `json:"cliques"`
	Runs       int                `json:"runs"`
	BestWallNs int64              `json:"best_wall_ns"`
	CalibNs    int64              `json:"calib_ns"`
	Normalized float64            `json:"normalized"`
	Parallel   parScenario        `json:"parallel"`
	Telemetry  telemetry.Snapshot `json:"telemetry"`
}

// bestWall runs f n times and keeps the fastest wall time — best-of-N is the
// standard way to strip scheduler noise from a single-threaded benchmark.
func bestWall(n int, f func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// runParScenario runs the dense-block workload sequentially and with the
// intra-block pool, best-of-N each, digesting both output streams. The
// digests must agree unconditionally; the error return carries a mismatch.
func runParScenario(runs int, parFloor float64) (parScenario, error) {
	g := gen.ErdosRenyi(denseNodes, denseEdgeP, denseSeed)
	sc := parScenario{
		Nodes: denseNodes, EdgeP: denseEdgeP, Seed: denseSeed, Workers: denseWorkers,
		NumCPU: runtime.NumCPU(),
		Floor:  parFloor,
	}
	run := func(opts core.Options) (int, string, time.Duration, error) {
		cliques, digest := -1, ""
		wall, err := bestWall(runs, func() error {
			h := fnv.New64a()
			n := 0
			var buf [4]byte
			res, err := core.FindMaxCliques(g, opts)
			if err != nil {
				return err
			}
			if lv := res.Stats.Levels; len(lv) != 1 || lv[0].Blocks != 1 {
				return fmt.Errorf("dense scenario ran levels %+v, want one level of one block", lv)
			}
			for _, c := range res.Cliques {
				for _, v := range c {
					buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
					h.Write(buf[:])
				}
				h.Write([]byte{0xff, 0xff, 0xff, 0xff}) // clique separator
				n++
			}
			d := fmt.Sprintf("%016x", h.Sum64())
			if cliques >= 0 && (cliques != n || digest != d) {
				return fmt.Errorf("nondeterministic output across repeats: %d/%s then %d/%s", cliques, digest, n, d)
			}
			cliques, digest = n, d
			return nil
		})
		return cliques, digest, wall, err
	}
	seqCliques, seqDigest, seqWall, err := run(core.Options{Parallelism: 1})
	if err != nil {
		return sc, fmt.Errorf("dense sequential: %w", err)
	}
	parCliques, parDigest, parWall, err := run(core.Options{Parallelism: 1, IntraBlockParallelism: denseWorkers})
	if err != nil {
		return sc, fmt.Errorf("dense parallel: %w", err)
	}
	sc.Cliques, sc.Digest = seqCliques, seqDigest
	sc.SeqBestNs, sc.ParBestNs = seqWall.Nanoseconds(), parWall.Nanoseconds()
	sc.Speedup = float64(seqWall) / float64(parWall)
	sc.FloorEnforced = sc.NumCPU >= parFloorMinCPUs
	if parDigest != seqDigest || parCliques != seqCliques {
		return sc, fmt.Errorf("parallel output diverged from sequential: %d cliques/%s vs %d/%s — determinism regression",
			parCliques, parDigest, seqCliques, seqDigest)
	}
	if sc.FloorEnforced && sc.Speedup < parFloor {
		return sc, fmt.Errorf("parallel speedup %.2fx below floor %.2fx on %d CPUs (seq %v, par %v) — scaling regression",
			sc.Speedup, parFloor, sc.NumCPU, seqWall.Round(time.Millisecond), parWall.Round(time.Millisecond))
	}
	return sc, nil
}

func runSmoke(stdout, stderr io.Writer, outPath, baselinePath string, regress float64, runs int, parFloor float64) int {
	if runs < 1 {
		fmt.Fprintln(stderr, "mcebench: -smoke-runs must be at least 1")
		return 2
	}
	if regress <= 0 {
		fmt.Fprintln(stderr, "mcebench: -regress must be positive")
		return 2
	}
	if parFloor <= 0 {
		fmt.Fprintln(stderr, "mcebench: -par-floor must be positive")
		return 2
	}

	g := gen.HolmeKim(smokeNodes, smokeDeg, smokeTriad, smokeSeed)
	cg := gen.HolmeKim(calibNodes, calibDeg, calibTriad, calibSeed)
	opts := core.Options{BlockRatio: smokeRatio, Parallelism: 1}

	calib, err := bestWall(runs, func() error {
		_, err := core.FindMaxCliques(cg, opts)
		return err
	})
	if err != nil {
		fmt.Fprintln(stderr, "mcebench: calibration:", err)
		return 1
	}

	// Timed runs go through the uninstrumented default path — that is what
	// the gate protects. Determinism is checked across the N runs.
	cliques := -1
	wall, err := bestWall(runs, func() error {
		res, err := core.FindMaxCliques(g, opts)
		if err != nil {
			return err
		}
		if cliques >= 0 && res.Stats.TotalCliques != cliques {
			return fmt.Errorf("nondeterministic clique count: %d then %d", cliques, res.Stats.TotalCliques)
		}
		cliques = res.Stats.TotalCliques
		return nil
	})
	if err != nil {
		fmt.Fprintln(stderr, "mcebench:", err)
		return 1
	}

	// One extra instrumented run feeds the artifact's telemetry section
	// (blocks, recursion nodes, filter work) without polluting the timing.
	eng := telemetry.NewEngine()
	instr := opts
	instr.Metrics = eng
	if _, err := core.FindMaxCliques(g, instr); err != nil {
		fmt.Fprintln(stderr, "mcebench: instrumented run:", err)
		return 1
	}

	// The dense-block parallel scenario gates in-run (digest equality,
	// speedup floor); its verdict is deferred until after the report is
	// written so a failing gate still leaves the artifact behind.
	parSc, parErr := runParScenario(runs, parFloor)

	rep := smokeReport{
		Schema:     smokeSchema,
		Graph:      smokeGraph{Nodes: smokeNodes, Deg: smokeDeg, Triad: smokeTriad, Seed: smokeSeed, Ratio: smokeRatio},
		Cliques:    cliques,
		Runs:       runs,
		BestWallNs: wall.Nanoseconds(),
		CalibNs:    calib.Nanoseconds(),
		Normalized: float64(wall) / float64(calib),
		Parallel:   parSc,
		Telemetry:  eng.Snapshot(),
	}
	fmt.Fprintf(stdout, "smoke: %d cliques, best of %d: %v (calib %v, normalized %.3f)\n",
		rep.Cliques, rep.Runs, wall.Round(time.Millisecond), calib.Round(time.Millisecond), rep.Normalized)
	floorNote := "enforced"
	if !parSc.FloorEnforced {
		floorNote = fmt.Sprintf("not enforced, %d CPUs < %d", parSc.NumCPU, parFloorMinCPUs)
	}
	fmt.Fprintf(stdout, "smoke: dense block %d cliques, seq %v vs %d-worker %v (%.2fx, floor %.2fx %s), digest %s\n",
		parSc.Cliques, time.Duration(parSc.SeqBestNs).Round(time.Millisecond), parSc.Workers,
		time.Duration(parSc.ParBestNs).Round(time.Millisecond), parSc.Speedup, parSc.Floor, floorNote, parSc.Digest)

	// The report is written before the gate runs, so CI can always upload
	// the artifact — a failing gate still leaves evidence behind.
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "mcebench:", err)
			return 1
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "mcebench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "smoke: report written to %s\n", outPath)
	}

	if parErr != nil {
		fmt.Fprintln(stderr, "mcebench: parallel gate:", parErr)
		return 1
	}

	if baselinePath != "" {
		if err := gateAgainstBaseline(stdout, rep, baselinePath, regress); err != nil {
			fmt.Fprintln(stderr, "mcebench: benchmark gate:", err)
			return 1
		}
	}
	return 0
}

// gateAgainstBaseline compares the fresh report with the checked-in one.
// Clique counts must match exactly (the workload is deterministic); the
// normalized wall time may drift up to the regress fraction.
func gateAgainstBaseline(stdout io.Writer, rep smokeReport, path string, regress float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base smokeReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.Schema != rep.Schema {
		return fmt.Errorf("baseline schema %d, tool speaks %d — regenerate the baseline", base.Schema, rep.Schema)
	}
	if base.Graph != rep.Graph {
		return fmt.Errorf("baseline ran workload %+v, this run %+v — regenerate the baseline", base.Graph, rep.Graph)
	}
	if base.Cliques != rep.Cliques {
		return fmt.Errorf("clique count %d differs from baseline %d on a deterministic workload — correctness regression",
			rep.Cliques, base.Cliques)
	}
	if base.Normalized <= 0 {
		return fmt.Errorf("baseline normalized time %.3f is not positive — regenerate the baseline", base.Normalized)
	}
	// The parallel scenario's workload identity, clique count and output
	// digest are machine-independent; its timings are not, so the baseline
	// never gates on them (the in-run speedup floor does that).
	if base.Parallel.Nodes != rep.Parallel.Nodes || base.Parallel.EdgeP != rep.Parallel.EdgeP ||
		base.Parallel.Seed != rep.Parallel.Seed || base.Parallel.Workers != rep.Parallel.Workers {
		return fmt.Errorf("baseline dense scenario (n=%d p=%.2f seed=%d w=%d) differs from this run (n=%d p=%.2f seed=%d w=%d) — regenerate the baseline",
			base.Parallel.Nodes, base.Parallel.EdgeP, base.Parallel.Seed, base.Parallel.Workers,
			rep.Parallel.Nodes, rep.Parallel.EdgeP, rep.Parallel.Seed, rep.Parallel.Workers)
	}
	if base.Parallel.Cliques != rep.Parallel.Cliques {
		return fmt.Errorf("dense-block clique count %d differs from baseline %d — correctness regression",
			rep.Parallel.Cliques, base.Parallel.Cliques)
	}
	if base.Parallel.Digest != rep.Parallel.Digest {
		return fmt.Errorf("dense-block output digest %s differs from baseline %s — determinism regression",
			rep.Parallel.Digest, base.Parallel.Digest)
	}
	ratio := rep.Normalized / base.Normalized
	if ratio > 1+regress {
		return fmt.Errorf("normalized time %.3f is %.0f%% over baseline %.3f (limit +%.0f%%)",
			rep.Normalized, 100*(ratio-1), base.Normalized, 100*regress)
	}
	fmt.Fprintf(stdout, "smoke: gate passed, normalized %.3f vs baseline %.3f (%+.0f%%, limit +%.0f%%)\n",
		rep.Normalized, base.Normalized, 100*(ratio-1), 100*regress)
	return nil
}
