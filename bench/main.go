// Command bench is the repository benchmark: four workloads, four
// end-to-end metrics on each, and a separate traced run that attributes the
// time to the layers. BENCHMARK.json at the repository root describes it to
// the driver; README.md in this directory says why each workload exists.
//
// Usage, from the repository root:
//
//	go run ./bench                        every workload, each in its own process
//	go run ./bench -workload dense_core   one workload (what the driver runs)
//	go run ./bench -trace 1               the per-layer run
//	go run ./bench -aa                    two sets back to back, compared against the bounds
//
// bench/run.sh is the same command with the toolchain's caches moved inside
// the checkout. One workload run prints its metrics by name and ends with
// one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one named number of a run. n is the sample count behind a
// median, 0 for a single reading.
type metric struct {
	name  string
	value float64
	n     int
}

// report is what one workload run produced.
type report struct {
	attempted, failed int
	metrics           []metric
}

// env is what a workload run is given.
type env struct {
	seed    int64
	seconds time.Duration
	scratch string    // private directory, removed when the run ends
	mcedBin string    // built only for a workload that serves from it
	log     io.Writer // human-readable progress, on standard output above the result line
}

// driverResult is the last line of a workload run, in the shape the driver
// reads.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run in this process (empty = all, each in a child process)")
	seed := fs.Int64("seed", 42, "seed of the generated inputs")
	seconds := fs.Int("seconds", 18, "length of the timed region in seconds")
	trace := fs.Int("trace", 0, "1 = the per-layer run, 0 = the end-to-end run")
	aa := fs.Bool("aa", false, "run every workload twice and compare the two sets against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want [-workload name] [-seed n] [-seconds n≥1] [-trace 0|1] [-aa]")
		return 2
	}
	if _, err := os.Stat("cmd/mced"); err != nil {
		fmt.Fprintln(stderr, "bench: run from the repository root (cmd/mced not found)")
		return 2
	}
	child := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace)}
	switch {
	case *aa:
		return runAA(child, stdout, stderr)
	case *name == "":
		if _, ok := runSet(child, stdout, stderr); !ok {
			return 1
		}
		return 0
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process: it builds mced if the
// workload serves from it, makes the scratch directory, runs the end-to-end
// or the traced measurement, prints every metric by name and returns the
// driver's result.
func runWorkload(w *workload, seed int64, seconds time.Duration, trace bool, stdout io.Writer) (*driverResult, error) {
	// Two cores are what the recorded numbers were taken on; a literal keeps
	// a bigger machine from changing the parallel shape of the workloads.
	runtime.GOMAXPROCS(2)
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, seconds: seconds, log: stdout, mcedBin: filepath.Join(build, "bin", "mced")}
	if w.daemon {
		if out, err := exec.Command("go", "build", "-o", e.mcedBin, "./cmd/mced").CombinedOutput(); err != nil {
			return nil, fmt.Errorf("build mced: %v\n%s", err, out)
		}
	}
	if err := os.MkdirAll(filepath.Join(build, "scratch"), 0o755); err != nil {
		return nil, err
	}
	if e.scratch, err = os.MkdirTemp(filepath.Join(build, "scratch"), w.name+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.scratch)
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%d trace=%t | %s\n", w.name, seed, int(seconds/time.Second), trace, machineLine(e.scratch))

	var rep *report
	want := endToEndMetrics
	if trace {
		want = layerMetrics
		rep, err = w.trace(e)
	} else {
		rep, err = measureEndToEnd(w, e)
	}
	if err != nil {
		return nil, err
	}
	res := &driverResult{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]driverMetric, len(want)),
	}
	got := make(map[string]metric, len(rep.metrics))
	for _, m := range rep.metrics {
		got[m.name] = m
	}
	// Every declared metric is printed on every workload; a layer the
	// workload never enters reads 0.
	for _, d := range want {
		m := got[d.name]
		res.Metrics[d.name] = driverMetric{Value: m.value, Unit: d.unit}
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf(" n=%d", m.n)
		}
		fmt.Fprintf(stdout, "%-18s %-34s %16.4f %s%s\n", w.name, d.name, m.value, d.unit, samples)
	}
	fmt.Fprintf(stdout, "%-18s ops=%d ops_failed=%d\n", w.name, rep.attempted, rep.failed)
	return res, nil
}

// runSet runs every workload once, each in a child process so that the peak
// resident set is the workload's own, and returns the results by workload.
func runSet(childArgs []string, stdout, stderr io.Writer) (map[string]*driverResult, bool) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return nil, false
	}
	set := make(map[string]*driverResult)
	ok := true
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, childArgs...)...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		stdout.Write(out)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			ok = false
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res driverResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "bench: %s: result line: %v\n", w.name, err)
			ok = false
			continue
		}
		set[w.name] = &res
	}
	return set, ok
}

// runAA runs two full sets of the same tree back to back and compares every
// (workload, metric) pair against its bound: the benchmark's own noise must
// stay below what it would report as a regression.
func runAA(childArgs []string, stdout, stderr io.Writer) int {
	a, okA := runSet(childArgs, stdout, stderr)
	b, okB := runSet(childArgs, stdout, stderr)
	if !okA || !okB {
		return 1
	}
	code := 0
	fmt.Fprintf(stdout, "\n%-18s %-12s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		for _, d := range endToEndMetrics {
			x, y := a[w.name].Metrics[d.name].Value, b[w.name].Metrics[d.name].Value
			diff := (y - x) / x
			if diff < 0 {
				diff = -diff
			}
			verdict := "ok"
			if diff > d.bound {
				verdict = "EXCEEDED"
				code = 1
			}
			fmt.Fprintf(stdout, "%-18s %-12s %14.4f %14.4f %7.2f%% %5.0f%% %s\n", w.name, d.name, x, y, 100*diff, 100*d.bound, verdict)
		}
	}
	return code
}
