// Command phlogon-benchdiff pins and compares benchmark baselines.
//
// `go test -bench` output is not machine-comparable by itself; this tool
// parses it into a stable JSON shape so a committed baseline
// (BENCH_baseline.json) can gate performance regressions:
//
//	go test -run '^$' -bench . -benchtime 1x . | phlogon-benchdiff parse -o BENCH_baseline.json
//	go test -run '^$' -bench . -benchtime 1x . | phlogon-benchdiff compare -baseline BENCH_baseline.json
//
// compare exits 1 when any benchmark slows down or allocates beyond the
// tolerances, when a baselined benchmark disappears, or when a pinned work
// count (a b.ReportMetric unit ending in /op) differs or is missing. Timing
// tolerance defaults wide (-benchtime 1x numbers are noisy); allocation
// counts are deterministic, so their tolerance is tight, and work counts
// must repeat exactly. For tight timing gates, run
// the benchmark with `-count N` — parse keeps the per-name minimum, which
// suppresses scheduling noise — and restrict compare with -only.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"

	"repro/internal/diag"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "parse":
		cmdParse(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	case "ratio":
		cmdRatio(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "phlogon-benchdiff: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  phlogon-benchdiff parse   [-o file]                         < bench-output
  phlogon-benchdiff compare -baseline file [-tol x] [-alloc-tol x] [-bytes-tol x] [-only regexp] < bench-output
  phlogon-benchdiff ratio   -num bench -den bench -min x      < bench-output`)
}

// df is package-level so fatal can flush profiles before exiting. benchdiff
// performs no numerics itself, so only the pprof half of the bundle is
// interesting here; the flags exist on every phlogon binary for uniformity.
var df *diag.Flags

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phlogon-benchdiff:", err)
	if df != nil {
		df.Stop()
	}
	os.Exit(1)
}

func startDiag(fs *flag.FlagSet, args []string) {
	fs.Parse(args)
	if _, err := df.Start(context.Background()); err != nil {
		fatal(err)
	}
}

func readSet(r io.Reader) *Set {
	set, err := ParseBench(r)
	if err != nil {
		fatal(err)
	}
	if len(set.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}
	return set
}

func cmdParse(args []string) {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	out := fs.String("o", "-", "output file ('-' = stdout)")
	df = diag.AddFlags(fs)
	startDiag(fs, args)
	defer df.Stop()

	set := readSet(os.Stdin)
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "phlogon-benchdiff: wrote %d benchmarks to %s\n",
		len(set.Benchmarks), *out)
}

func cmdCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	baseFile := fs.String("baseline", "", "baseline JSON written by parse (required)")
	tol := fs.Float64("tol", 1.0, "allowed fractional ns/op slowdown (1.0 = 2× the baseline)")
	allocTol := fs.Float64("alloc-tol", 0.15, "allowed fractional allocs/op growth")
	bytesTol := fs.Float64("bytes-tol", 0.25, "allowed fractional B/op growth")
	only := fs.String("only", "", "compare only benchmarks matching this regexp")
	df = diag.AddFlags(fs)
	startDiag(fs, args)
	defer df.Stop()
	if *baseFile == "" {
		fmt.Fprintln(os.Stderr, "phlogon-benchdiff: -baseline is required")
		fs.Usage()
		os.Exit(2)
	}

	data, err := os.ReadFile(*baseFile)
	if err != nil {
		fatal(err)
	}
	var base Set
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("%s: %w", *baseFile, err))
	}
	if base.Version != SetVersion {
		fatal(fmt.Errorf("%s: version %d, want %d (re-run `make bench-baseline`)",
			*baseFile, base.Version, SetVersion))
	}

	cur := readSet(os.Stdin)
	if *only != "" {
		re, err := regexp.Compile(*only)
		if err != nil {
			fatal(fmt.Errorf("-only: %w", err))
		}
		filterSet(&base, re)
		filterSet(cur, re)
		if len(cur.Benchmarks) == 0 && len(base.Benchmarks) == 0 {
			fatal(fmt.Errorf("-only %q matches no benchmark on either side", *only))
		}
	}
	diffs := Compare(&base, cur, *tol, *allocTol, *bytesTol)
	bad := 0
	for _, d := range diffs {
		if d.Regressed {
			bad++
		}
		fmt.Println(d)
	}
	fmt.Printf("%d benchmarks compared, %d regressed (tol %+.0f%% time, %+.0f%% allocs, %+.0f%% bytes)\n",
		len(diffs), bad, *tol*100, *allocTol*100, *bytesTol*100)
	if bad > 0 {
		df.Stop()
		os.Exit(1)
	}
}

// cmdRatio gates a speedup claim: ns/op(num) / ns/op(den) must be at least
// -min. Unlike compare's absolute baselines, a ratio of two benchmarks from
// the same run is robust to machine speed — load slows both sides together —
// which is what makes it suitable for CI assertions like "the batched
// Monte-Carlo path stays ≥5x faster than the scalar one".
func cmdRatio(args []string) {
	fs := flag.NewFlagSet("ratio", flag.ExitOnError)
	num := fs.String("num", "", "numerator benchmark name, the slow side (required)")
	den := fs.String("den", "", "denominator benchmark name, the fast side (required)")
	min := fs.Float64("min", 1.0, "minimum allowed ns/op(num) / ns/op(den)")
	df = diag.AddFlags(fs)
	startDiag(fs, args)
	defer df.Stop()
	if *num == "" || *den == "" {
		fmt.Fprintln(os.Stderr, "phlogon-benchdiff: -num and -den are required")
		fs.Usage()
		os.Exit(2)
	}

	cur := readSet(os.Stdin)
	lookup := func(name string) Result {
		if r, ok := cur.Benchmarks[name]; ok {
			return r
		}
		fatal(fmt.Errorf("benchmark %q not found on stdin (have %v)", name, sortedNames(cur, cur)))
		panic("unreachable")
	}
	n, d := lookup(*num), lookup(*den)
	if d.NsPerOp <= 0 {
		fatal(fmt.Errorf("%s: non-positive ns/op %g", *den, d.NsPerOp))
	}
	ratio := n.NsPerOp / d.NsPerOp
	fmt.Printf("%s / %s = %.2fx (min %.2fx)\n", *num, *den, ratio, *min)
	if ratio < *min {
		fmt.Printf("FAIL: speedup %.2fx below required %.2fx\n", ratio, *min)
		df.Stop()
		os.Exit(1)
	}
}

// filterSet drops benchmarks whose name does not match re.
func filterSet(s *Set, re *regexp.Regexp) {
	for name := range s.Benchmarks {
		if !re.MatchString(name) {
			delete(s.Benchmarks, name)
		}
	}
}

// sortedNames returns the union of benchmark names in both sets, sorted.
func sortedNames(a, b *Set) []string {
	seen := map[string]bool{}
	for n := range a.Benchmarks {
		seen[n] = true
	}
	for n := range b.Benchmarks {
		seen[n] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
