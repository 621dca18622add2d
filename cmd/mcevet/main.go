// Command mcevet runs the repo's custom static-analysis suite
// (internal/lint) over Go packages and reports every invariant violation.
//
// Usage:
//
//	mcevet [-list] [-run name,name] [-sarif] [-C dir] [-update-allocbudget] [packages...]
//
// With no package patterns, ./... is analyzed relative to the current
// directory. Every package is analyzed the way `go test` compiles it, test
// files included. The exit status is 1 when any diagnostic is reported and 2
// on analysis failure, mirroring go vet.
//
// -run selects analyzers by name; entries that look like package patterns
// (./internal/..., mce/cmd/mcefind) are treated as extra package arguments,
// so `mcevet -run maporder,./internal/...` does what it reads as.
//
// -sarif emits SARIF 2.1.0 for GitHub code scanning instead of the text
// report.
//
// -update-allocbudget regenerates .mcevet/allocbudget.json — the committed
// list of accepted hot-path allocation sites that the hotalloc analyzer
// reconciles the compiler's escape analysis against. The write is
// deterministic, so CI can re-run it and fail on `git diff --exit-code`.
//
// The suite is also meant as a merge gate: `make lint` (and `make check`)
// run `mcevet ./...` next to `go vet`. The driver is standalone rather than
// a `go vet -vettool` plugin because the vettool protocol lives in
// golang.org/x/tools/go/analysis/unitchecker, which the module cannot
// depend on; the analyzers themselves follow the analysis.Analyzer shape, so
// migrating to the real driver is mechanical when the dependency becomes
// available.
//
// Findings are suppressed line-by-line with
//
//	//lint:ignore <analyzer>[,<analyzer>] <justification>
//
// placed on, or directly above, the offending line. A directive without a
// justification is itself reported, and so is a justified directive that no
// longer suppresses anything (the staleignore analyzer).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mce/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcevet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list the analyzers and exit")
		runNames = fs.String("run", "", "comma-separated analyzer names and/or package patterns to run (default: all analyzers)")
		asSARIF  = fs.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0 (for code scanning)")
		chdir    = fs.String("C", ".", "resolve package patterns relative to this directory")
		upBudget = fs.Bool("update-allocbudget", false, "regenerate "+lint.DefaultBudgetPath+" from the current hot-path escape analysis and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := lint.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	analyzers := all
	if *runNames != "" {
		byName := make(map[string]*lint.Analyzer, len(all))
		for _, a := range all {
			byName[a.Name] = a
		}
		var selected []*lint.Analyzer
		for _, entry := range strings.Split(*runNames, ",") {
			entry = strings.TrimSpace(entry)
			if entry == "" {
				continue
			}
			if isPackagePattern(entry) {
				patterns = append(patterns, entry)
				continue
			}
			a, ok := byName[entry]
			if !ok {
				fmt.Fprintf(stderr, "mcevet: unknown analyzer %q (try -list)\n", entry)
				return 2
			}
			selected = append(selected, a)
		}
		if len(selected) > 0 {
			analyzers = selected
		}
	}

	if *upBudget {
		return updateBudget(*chdir, patterns, stdout, stderr)
	}

	pkgs, err := lint.Load(*chdir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "mcevet: %v\n", err)
		return 2
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "mcevet: %v\n", err)
		return 2
	}

	if *asSARIF {
		root, err := filepath.Abs(*chdir)
		if err != nil {
			root = *chdir
		}
		if err := writeSARIF(stdout, analyzers, diags, root); err != nil {
			fmt.Fprintf(stderr, "mcevet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*asSARIF {
			fmt.Fprintf(stderr, "mcevet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// updateBudget regenerates the allocation budget file from the current
// hot-path escape analysis: the accepted-allocation counterpart of gofmt -w.
// Notes on surviving entries are carried over; the write is deterministic, so
// `git diff --exit-code` after a run is the CI drift check.
func updateBudget(dir string, patterns []string, stdout, stderr io.Writer) int {
	budgetPath := filepath.Join(dir, lint.DefaultBudgetPath)
	prev, err := lint.LoadAllocBudget(budgetPath)
	if err != nil {
		fmt.Fprintf(stderr, "mcevet: %v\n", err)
		return 2
	}
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "mcevet: %v\n", err)
		return 2
	}
	entries, err := lint.CollectAllocBudget(pkgs, prev)
	if err != nil {
		fmt.Fprintf(stderr, "mcevet: %v\n", err)
		return 2
	}
	if err := lint.WriteAllocBudget(budgetPath, entries); err != nil {
		fmt.Fprintf(stderr, "mcevet: %v\n", err)
		return 2
	}
	was := make(map[string]bool, len(prev))
	for _, e := range prev {
		was[e.Site] = true
	}
	added := 0
	for _, e := range entries {
		if !was[e.Site] {
			added++
		}
		delete(was, e.Site)
	}
	fmt.Fprintf(stdout, "mcevet: wrote %s: %d site(s), %d added, %d dropped\n",
		budgetPath, len(entries), added, len(was))
	return 0
}

// isPackagePattern distinguishes a -run entry naming a package from one
// naming an analyzer: analyzers are single lowercase words, so anything
// with a path separator, a leading dot, or a ... wildcard is a pattern.
func isPackagePattern(s string) bool {
	return strings.ContainsAny(s, "/\\") || strings.HasPrefix(s, ".") || strings.Contains(s, "...")
}
