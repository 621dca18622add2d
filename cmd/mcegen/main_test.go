package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mce"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestMissingOutput(t *testing.T) {
	code, _, errs := runCmd(t, "-model", "ba")
	if code == 0 || !strings.Contains(errs, "-o") {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
}

func TestUnknownModel(t *testing.T) {
	code, _, errs := runCmd(t, "-model", "nope", "-o", filepath.Join(t.TempDir(), "g.txt"))
	if code == 0 || !strings.Contains(errs, "unknown model") {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
}

func TestUnknownDataset(t *testing.T) {
	code, _, _ := runCmd(t, "-model", "dataset", "-name", "orkut", "-o", filepath.Join(t.TempDir(), "g.txt"))
	if code == 0 {
		t.Fatal("unknown dataset accepted")
	}
}

func TestBadFlag(t *testing.T) {
	code, _, _ := runCmd(t, "-nonsense")
	if code != 2 {
		t.Fatalf("code = %d, want 2", code)
	}
}

func TestGenerateEveryModel(t *testing.T) {
	dir := t.TempDir()
	for _, model := range []string{"er", "ba", "ws", "hk", "chain"} {
		p := filepath.Join(dir, model+".txt")
		code, out, errs := runCmd(t, "-model", model, "-n", "80", "-k", "3", "-p", "0.3", "-o", p)
		if code != 0 {
			t.Fatalf("%s: code=%d errs=%q", model, code, errs)
		}
		if !strings.Contains(out, "wrote") {
			t.Fatalf("%s: out=%q", model, out)
		}
		g, _, err := mce.Load(p)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if g.M() == 0 {
			t.Fatalf("%s: generated empty graph", model)
		}
	}
}

func TestGenerateTriplesExtension(t *testing.T) {
	p := filepath.Join(t.TempDir(), "g.triples")
	code, _, errs := runCmd(t, "-model", "er", "-n", "40", "-p", "0.2", "-o", p)
	if code != 0 {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
	g, _, err := mce.Load(p)
	if err != nil || g.M() == 0 {
		t.Fatalf("triples load: %v", err)
	}
}

func TestGeneratePartitioned(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "parts")
	code, out, errs := runCmd(t, "-model", "hk", "-n", "150", "-k", "4", "-p", "0.6", "-parts", "3", "-o", dir)
	if code != 0 {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
	if !strings.Contains(out, "3 partitions") {
		t.Fatalf("out=%q", out)
	}
	g, _, err := mce.LoadPartitioned(dir)
	if err != nil || g.M() == 0 {
		t.Fatalf("partitioned load: %v", err)
	}
}

func TestGenerateDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset build is slow")
	}
	p := filepath.Join(t.TempDir(), "tw.txt")
	code, _, errs := runCmd(t, "-model", "dataset", "-name", "twitter1", "-o", p)
	if code != 0 {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
	g, _, err := mce.Load(p)
	if err != nil || g.N() == 0 {
		t.Fatalf("dataset load: %v", err)
	}
}

// TestDiskGraphOutputFeedsMcefind: "-o x.mceg" writes the out-of-core disk
// graph, not an edge list, so mcefind enumerates it and counts exactly what
// the text route counts for the same graph.
func TestDiskGraphOutputFeedsMcefind(t *testing.T) {
	dir := t.TempDir()
	mcefind := filepath.Join(dir, "mcefind")
	// go test puts its own toolchain first on the PATH of the test binary.
	build := exec.Command("go", "build", "-o", mcefind, "mce/cmd/mcefind")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build mcefind: %v\n%s", err, out)
	}
	for _, name := range []string{"g.mceg", "g.txt"} {
		p := filepath.Join(dir, name)
		if code, _, errs := runCmd(t, "-model", "hk", "-n", "300", "-k", "4", "-p", "0.7", "-seed", "1", "-o", p); code != 0 {
			t.Fatalf("%s: code=%d errs=%q", name, code, errs)
		}
		out, err := exec.Command(mcefind, "-count", p).CombinedOutput()
		if err != nil || strings.TrimSpace(string(out)) != "686" {
			t.Fatalf("mcefind -count %s = %q, %v; want 686", name, out, err)
		}
	}
}
