package main

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// SetVersion guards the JSON schema of a pinned baseline.
const SetVersion = 1

// Result is one benchmark's metrics as reported by `go test -bench`.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Mem records that the run reported the B/op and allocs/op columns, so
	// zero counts are measurements rather than missing columns.
	Mem bool `json:"benchmem,omitempty"`
	// Counts holds the b.ReportMetric values whose unit ends in "/op" (ns/op,
	// B/op and allocs/op aside), keyed by unit: deterministic work counts
	// such as newton_iters/op, which compare gates exactly.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// Set is a parsed benchmark run, keyed by benchmark name with any
// -GOMAXPROCS suffix stripped so baselines transfer across machines.
type Set struct {
	Version    int               `json:"version"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// benchLine matches a result line, e.g.
//
//	BenchmarkFoo-8    100    123.4 ns/op    2.44 iters/op    56 B/op    7 allocs/op
//
// capturing the name and the "value unit" pairs after the iteration count.
// Metrics a benchmark reports with b.ReportMetric sit between ns/op and the
// -benchmem columns (B/op, allocs/op), which are optional.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// gomaxprocsSuffix strips the trailing -N go test appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// ParseBench extracts benchmark results from `go test -bench` output,
// ignoring non-benchmark lines (PASS, ok, warnings). Duplicate names (from
// `-count N` repeats) keep the minimum ns/op and B/op — the minimum is the
// standard noise-robust estimator of a benchmark's true cost, since
// scheduling and frequency-scaling jitter only ever add time — and the
// maximum allocs/op, which is deterministic and must not be flattered. A
// work count that differs between repeats is an error: it is not
// deterministic, so no pin can hold it.
func ParseBench(r io.Reader) (*Set, error) {
	set := &Set{Version: SetVersion, Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		res, ok, err := parseMetrics(strings.Fields(m[2]))
		if err != nil {
			return nil, fmt.Errorf("%q: %w", sc.Text(), err)
		}
		if !ok {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		if prev, ok := set.Benchmarks[name]; ok {
			res.Mem = res.Mem || prev.Mem
			if prev.NsPerOp < res.NsPerOp {
				res.NsPerOp = prev.NsPerOp
			}
			if prev.BytesPerOp != 0 && (res.BytesPerOp == 0 || prev.BytesPerOp < res.BytesPerOp) {
				res.BytesPerOp = prev.BytesPerOp
			}
			if prev.AllocsPerOp > res.AllocsPerOp {
				res.AllocsPerOp = prev.AllocsPerOp
			}
			for unit, v := range prev.Counts {
				if c, ok := res.Counts[unit]; ok && c != v {
					return nil, fmt.Errorf("%s: %s differs between repeats (%g, %g)", name, unit, v, c)
				}
			}
		}
		set.Benchmarks[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return set, nil
}

// parseMetrics reads a result line's "value unit" pairs wherever they sit,
// keeping ns/op, B/op, allocs/op and the work counts (other "/op" units),
// and ignoring other units. ok is false when the line has no ns/op, which
// every result line carries.
func parseMetrics(fields []string) (res Result, ok bool, err error) {
	for i := 0; i+1 < len(fields); i += 2 {
		var dst *float64
		var count float64
		unit := fields[i+1]
		switch {
		case unit == "ns/op":
			dst, ok = &res.NsPerOp, true
		case unit == "B/op":
			dst = &res.BytesPerOp
		case unit == "allocs/op":
			dst, res.Mem = &res.AllocsPerOp, true
		case strings.HasSuffix(unit, "/op"):
			dst = &count
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(fields[i], 64); err != nil {
			return res, false, fmt.Errorf("bad %s: %w", unit, err)
		}
		if dst == &count {
			if res.Counts == nil {
				res.Counts = map[string]float64{}
			}
			res.Counts[unit] = count
		}
	}
	return res, ok, nil
}

// Diff is one benchmark's baseline-vs-current verdict.
type Diff struct {
	Name       string
	Base, Cur  *Result // nil when the benchmark is missing on that side
	TimeRatio  float64 // cur/base ns/op (0 when either side is missing)
	AllocRatio float64 // cur/base allocs/op (0 when either side lacks counts)
	ByteRatio  float64 // cur/base B/op (0 when either side lacks counts)
	Regressed  bool
	Why        string
}

func (d Diff) String() string {
	status := "ok  "
	if d.Regressed {
		status = "FAIL"
	}
	switch {
	case d.Base == nil:
		return fmt.Sprintf("%s %-36s new benchmark (no baseline)", status, d.Name)
	case d.Cur == nil:
		return fmt.Sprintf("%s %-36s missing from this run", status, d.Name)
	default:
		s := fmt.Sprintf("%s %-36s time ×%.2f", status, d.Name, d.TimeRatio)
		if d.AllocRatio > 0 {
			s += fmt.Sprintf("  allocs ×%.2f", d.AllocRatio)
		}
		if d.ByteRatio > 0 {
			s += fmt.Sprintf("  bytes ×%.2f", d.ByteRatio)
		}
		if n := len(d.Base.Counts); n > 0 {
			s += fmt.Sprintf("  %d pinned counts", n)
		}
		if d.Why != "" {
			s += "  (" + d.Why + ")"
		}
		return s
	}
}

// Compare evaluates cur against base. A benchmark regresses when its ns/op
// exceeds (1+tol)× the baseline, its allocs/op exceed (1+allocTol)× the
// baseline, its B/op exceed (1+bytesTol)× the baseline, a pinned work count
// differs at all or is missing from the run, or it vanished from the run;
// new benchmarks are reported but pass (pin them with `make
// bench-baseline`). Allocation counts and bytes are only gated when both
// sides carry them (-benchmem on both the baseline and current run); a
// baseline measured at 0 allocs/op (Mem set) fails on any allocation.
func Compare(base, cur *Set, tol, allocTol, bytesTol float64) []Diff {
	var diffs []Diff
	for _, name := range sortedNames(base, cur) {
		d := Diff{Name: name}
		if b, ok := base.Benchmarks[name]; ok {
			b := b
			d.Base = &b
		}
		if c, ok := cur.Benchmarks[name]; ok {
			c := c
			d.Cur = &c
		}
		switch {
		case d.Base == nil:
			// New benchmark: informational only.
		case d.Cur == nil:
			d.Regressed = true
			d.Why = "benchmark disappeared"
		default:
			if d.Base.NsPerOp > 0 {
				d.TimeRatio = d.Cur.NsPerOp / d.Base.NsPerOp
			}
			if d.Base.AllocsPerOp > 0 {
				d.AllocRatio = d.Cur.AllocsPerOp / d.Base.AllocsPerOp
			}
			if d.Base.BytesPerOp > 0 {
				d.ByteRatio = d.Cur.BytesPerOp / d.Base.BytesPerOp
			}
			if d.TimeRatio > 1+tol {
				d.Regressed = true
				d.Why = fmt.Sprintf("slower than tol ×%.2f", 1+tol)
			}
			if d.AllocRatio > 1+allocTol {
				d.Regressed = true
				if d.Why != "" {
					d.Why += "; "
				}
				d.Why += fmt.Sprintf("allocs above tol ×%.2f", 1+allocTol)
			}
			if d.ByteRatio > 1+bytesTol {
				d.Regressed = true
				if d.Why != "" {
					d.Why += "; "
				}
				d.Why += fmt.Sprintf("bytes above tol ×%.2f", 1+bytesTol)
			}
			if d.Base.Mem && d.Cur.Mem && d.Base.AllocsPerOp == 0 && d.Cur.AllocsPerOp > 0 {
				d.Regressed = true
				if d.Why != "" {
					d.Why += "; "
				}
				d.Why += fmt.Sprintf("allocates %.0f/op against a 0 allocs/op baseline", d.Cur.AllocsPerOp)
			}
			for _, unit := range sortedKeys(d.Base.Counts) {
				pin := d.Base.Counts[unit]
				got, ok := d.Cur.Counts[unit]
				if ok && got == pin {
					continue
				}
				d.Regressed = true
				if d.Why != "" {
					d.Why += "; "
				}
				if ok {
					d.Why += fmt.Sprintf("%g %s, pinned %g", got, unit, pin)
				} else {
					d.Why += fmt.Sprintf("pinned %s missing", unit)
				}
			}
		}
		diffs = append(diffs, d)
	}
	return diffs
}

// sortedKeys returns m's keys in order, so verdicts print deterministically.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
