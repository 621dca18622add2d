// Command mcegen writes synthetic networks to disk: the random-graph models
// the paper trains on (Erdős–Rényi, Barabási–Albert, Watts–Strogatz), the
// clique-rich Holme–Kim social model, the Theorem 1 hard chain, and the five
// dataset surrogates of the evaluation.
//
// Usage:
//
//	mcegen -model ba -n 10000 -k 5 -seed 7 -o ba.txt
//	mcegen -model dataset -name twitter2 -o twitter2.txt
//	mcegen -model hk -n 5000 -k 6 -p 0.7 -o social.triples
//	mcegen -model hk -n 300 -k 4 -p 0.7 -o social.mceg
//
// Models: er (uses -p as edge probability), ba, ws (uses -k and -p as
// rewiring beta), hk (uses -p as triad probability), plc (power-law
// configuration model, -p as exponent), chain (-k as the m of H_n),
// dataset (-name). A "-parts N" greater than 1 writes the graph as N
// part-*.triples files under the -o directory instead (the paper's
// distributed input layout, §6.2). The -o extension picks the format: the
// paper's triples for ".triples", the out-of-core disk graph that mcefind
// enumerates without loading for ".mceg", an edge list otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mce"
	"mce/internal/gen"
	"mce/internal/gio"
	"mce/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model = fs.String("model", "ba", "er|ba|ws|hk|plc|chain|dataset")
		n     = fs.Int("n", 1000, "number of nodes")
		k     = fs.Int("k", 4, "attachment/lattice/chain parameter")
		p     = fs.Float64("p", 0.5, "probability parameter (model-specific)")
		seed  = fs.Int64("seed", 1, "random seed")
		name  = fs.String("name", "twitter1", "dataset surrogate name")
		parts = fs.Int("parts", 1, "write this many part-*.triples files under -o")
		out   = fs.String("o", "", "output file, or directory when -parts > 1 (required)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "mcegen: -o output file is required")
		fs.Usage()
		return 2
	}

	var g *graph.Graph
	switch *model {
	case "er":
		g = gen.ErdosRenyi(*n, *p, *seed)
	case "ba":
		g = gen.BarabasiAlbert(*n, *k, *seed)
	case "ws":
		g = gen.WattsStrogatz(*n, *k, *p, *seed)
	case "hk":
		g = gen.HolmeKim(*n, *k, *p, *seed)
	case "plc":
		// Power-law configuration model: -p is the exponent alpha, -k the
		// minimum degree.
		g = gen.PowerLawConfiguration(*n, *p, *k, *n/10+*k, *seed)
	case "chain":
		g = gen.HardChain(*n, *k, *seed)
	case "dataset":
		spec, err := gen.Dataset(*name)
		if err != nil {
			fmt.Fprintln(stderr, "mcegen:", err)
			return 1
		}
		g = spec.Build()
	default:
		fmt.Fprintf(stderr, "mcegen: unknown model %q\n", *model)
		return 2
	}

	if *parts > 1 {
		if err := gio.WritePartitioned(*out, g, *parts); err != nil {
			fmt.Fprintln(stderr, "mcegen:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d partitions under %s: %d nodes, %d edges, max degree %d\n",
			*parts, *out, g.N(), g.M(), g.MaxDegree())
		return 0
	}
	save := mce.Save
	if strings.HasSuffix(*out, ".mceg") {
		save = mce.SaveDiskGraph // the out-of-core format mcefind enumerates without loading
	}
	if err := save(*out, g); err != nil {
		fmt.Fprintln(stderr, "mcegen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s: %d nodes, %d edges, max degree %d\n", *out, g.N(), g.M(), g.MaxDegree())
	return 0
}
