package main

import (
	"strings"
	"testing"
)

const sampleOutput = `
goos: linux
goarch: amd64
pkg: repro
BenchmarkShooting1N1P-8        	       3	  41234567 ns/op	 1234567 B/op	    4567 allocs/op
BenchmarkFig07LockingRangeWorkersN 	       1	   3107396 ns/op	   16744 B/op	     363 allocs/op
BenchmarkNoAllocCols           	     100	     987.5 ns/op
BenchmarkDup-4                 	       1	       200 ns/op	     80 B/op	      9 allocs/op
BenchmarkDup-4                 	       1	       100 ns/op	     96 B/op	      7 allocs/op
BenchmarkCustom-2              	       1	 444000000 ns/op	         1.260 lu/op	         2.440 newton/op	  150000 B/op	    9999 allocs/op
PASS
ok  	repro	3.927s
`

func TestParseBench(t *testing.T) {
	set, err := ParseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if set.Version != SetVersion {
		t.Errorf("version = %d, want %d", set.Version, SetVersion)
	}
	if len(set.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5: %v", len(set.Benchmarks), set.Benchmarks)
	}
	// The -8 GOMAXPROCS suffix must be stripped.
	got, ok := set.Benchmarks["BenchmarkShooting1N1P"]
	if !ok {
		t.Fatal("BenchmarkShooting1N1P missing (suffix not stripped?)")
	}
	if got.NsPerOp != 41234567 || got.BytesPerOp != 1234567 || got.AllocsPerOp != 4567 {
		t.Errorf("BenchmarkShooting1N1P = %+v", got)
	}
	// A name without suffix parses as-is.
	if _, ok := set.Benchmarks["BenchmarkFig07LockingRangeWorkersN"]; !ok {
		t.Error("suffix-less benchmark name missing")
	}
	// Missing -benchmem columns default to zero.
	if got := set.Benchmarks["BenchmarkNoAllocCols"]; got.NsPerOp != 987.5 ||
		got.BytesPerOp != 0 || got.AllocsPerOp != 0 {
		t.Errorf("BenchmarkNoAllocCols = %+v", got)
	}
	// Custom b.ReportMetric units between ns/op and the -benchmem columns
	// are skipped, not mistaken for a line without -benchmem.
	if got := set.Benchmarks["BenchmarkCustom"]; got.NsPerOp != 444000000 ||
		got.BytesPerOp != 150000 || got.AllocsPerOp != 9999 || !got.Mem {
		t.Errorf("BenchmarkCustom = %+v, want 444000000 ns/op, 150000 B/op, 9999 allocs/op", got)
	}
	// Custom "/op" metrics are work counts.
	if got := set.Benchmarks["BenchmarkCustom"].Counts; got["lu/op"] != 1.26 || got["newton/op"] != 2.44 || len(got) != 2 {
		t.Errorf("BenchmarkCustom counts = %v, want lu/op 1.26 and newton/op 2.44", got)
	}
	// -count repeats fold to min time / min bytes / max allocs.
	if got := set.Benchmarks["BenchmarkDup"]; got.NsPerOp != 100 ||
		got.BytesPerOp != 80 || got.AllocsPerOp != 9 {
		t.Errorf("BenchmarkDup = %+v, want min ns/op 100, min B/op 80, max allocs 9", got)
	}
}

func TestParseBenchEmptyInput(t *testing.T) {
	set, err := ParseBench(strings.NewReader("PASS\nok\treload\t0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from benchless output", len(set.Benchmarks))
	}
}

func mkSet(pairs map[string]Result) *Set {
	return &Set{Version: SetVersion, Benchmarks: pairs}
}

func TestCompareVerdicts(t *testing.T) {
	base := mkSet(map[string]Result{
		"BenchmarkStable":  {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000},
		"BenchmarkSlower":  {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkAllocUp": {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkBytesUp": {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000},
		"BenchmarkNoMem":   {NsPerOp: 100}, // baseline never ran -benchmem
		"BenchmarkGone":    {NsPerOp: 100},
	})
	cur := mkSet(map[string]Result{
		"BenchmarkStable":  {NsPerOp: 150, AllocsPerOp: 10, BytesPerOp: 1100}, // within every tol
		"BenchmarkSlower":  {NsPerOp: 250, AllocsPerOp: 10},                   // past ×2 tol
		"BenchmarkAllocUp": {NsPerOp: 100, AllocsPerOp: 13},                   // past ×1.15 allocs
		"BenchmarkBytesUp": {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1500}, // past ×1.25 bytes
		"BenchmarkNoMem":   {NsPerOp: 100, BytesPerOp: 9999},                  // not gated without a bytes baseline
		"BenchmarkNew":     {NsPerOp: 100},
	})
	verdicts := map[string]bool{}
	for _, d := range Compare(base, cur, 1.0, 0.15, 0.25) {
		verdicts[d.Name] = d.Regressed
	}
	want := map[string]bool{
		"BenchmarkStable":  false,
		"BenchmarkSlower":  true,
		"BenchmarkAllocUp": true,
		"BenchmarkBytesUp": true,
		"BenchmarkNoMem":   false, // bytes gate needs both sides instrumented
		"BenchmarkGone":    true,  // disappeared
		"BenchmarkNew":     false, // informational
	}
	for name, regressed := range want {
		got, ok := verdicts[name]
		if !ok {
			t.Errorf("%s missing from diff", name)
			continue
		}
		if got != regressed {
			t.Errorf("%s regressed = %v, want %v", name, got, regressed)
		}
	}
	if len(verdicts) != len(want) {
		t.Errorf("got %d diffs, want %d", len(verdicts), len(want))
	}
}

func TestCompareExactBaselinePasses(t *testing.T) {
	base := mkSet(map[string]Result{"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 7, BytesPerOp: 512}})
	for _, d := range Compare(base, base, 1.0, 0.15, 0.25) {
		if d.Regressed {
			t.Errorf("self-comparison regressed: %s", d)
		}
	}
}

// A baseline pinned at 0 allocs/op with -benchmem gates any allocation; a
// zero from a run without -benchmem stays ungated.
func TestCompareZeroAllocBaseline(t *testing.T) {
	base := mkSet(map[string]Result{
		"BenchmarkZero":   {NsPerOp: 100, Mem: true},
		"BenchmarkLegacy": {NsPerOp: 100},
	})
	for _, tc := range []struct {
		name      string
		cur       Result
		regressed bool
	}{
		{"BenchmarkZero", Result{NsPerOp: 100, Mem: true}, false},
		{"BenchmarkZero", Result{NsPerOp: 100, AllocsPerOp: 1, BytesPerOp: 16, Mem: true}, true},
		{"BenchmarkLegacy", Result{NsPerOp: 100, AllocsPerOp: 1, BytesPerOp: 16, Mem: true}, false},
	} {
		cur := mkSet(map[string]Result{tc.name: tc.cur})
		for _, d := range Compare(base, cur, 1.0, 0.05, 0.25) {
			if d.Name == tc.name && d.Regressed != tc.regressed {
				t.Errorf("%s at %v allocs/op: regressed = %v, want %v (%s)",
					tc.name, tc.cur.AllocsPerOp, d.Regressed, tc.regressed, d)
			}
		}
	}
	set, err := ParseBench(strings.NewReader("BenchmarkZero-2   1   4301 ns/op   0 B/op   0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r := set.Benchmarks["BenchmarkZero"]; !r.Mem || r.AllocsPerOp != 0 {
		t.Fatalf("parsed %+v, want a 0 allocs/op measurement", r)
	}
}

// Work counts are deterministic, so compare gates them exactly: a count
// that moves by one, or a pinned count the run no longer reports, fails;
// a timing metric in another unit (ns/lane) is not a count.
func TestCompareGatesCountsExactly(t *testing.T) {
	parse := func(out string) *Set {
		t.Helper()
		set, err := ParseBench(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	base := parse("BenchmarkX-2   1   1000 ns/op   226034 newton_iters/op   12.5 ns/lane   0 B/op   0 allocs/op\n")
	for _, tc := range []struct {
		name, run string
		regressed bool
	}{
		{"same counts", "BenchmarkX-2   1   1500 ns/op   226034 newton_iters/op   99 ns/lane   0 B/op   0 allocs/op\n", false},
		{"one more", "BenchmarkX-2   1   1000 ns/op   226035 newton_iters/op   12.5 ns/lane   0 B/op   0 allocs/op\n", true},
		{"one fewer", "BenchmarkX-2   1   1000 ns/op   226033 newton_iters/op   12.5 ns/lane   0 B/op   0 allocs/op\n", true},
		{"dropped", "BenchmarkX-2   1   1000 ns/op   12.5 ns/lane   0 B/op   0 allocs/op\n", true},
	} {
		for _, d := range Compare(base, parse(tc.run), 1.0, 0.05, 0.25) {
			if d.Regressed != tc.regressed {
				t.Errorf("%s: regressed = %v, want %v (%s)", tc.name, d.Regressed, tc.regressed, d)
			}
		}
	}
	if _, err := ParseBench(strings.NewReader("BenchmarkX 1 9 ns/op 3 iters/op\nBenchmarkX 1 9 ns/op 4 iters/op\n")); err == nil {
		t.Error("a count that differs between -count repeats parsed without error")
	}
}
