package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// minBeyond is the sample-count rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it, so p90 needs
// 100 samples and p50 needs 20.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted and whether the sample count supports it under the minBeyond rule.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// windows splits samples, in the order given, into consecutive windows of
// n; the remainder joins the last window, so every window holds n to 2n-1
// samples, or all of them when there are fewer than n.
func windows(samples []sample, n int) [][]sample {
	var ws [][]sample
	for len(samples) >= 2*n {
		ws = append(ws, samples[:n])
		samples = samples[n:]
	}
	if len(samples) > 0 {
		ws = append(ws, samples)
	}
	return ws
}

// median is the middle value of xs, or the mean of the two middle values
// of an even count; it is always reported, whatever the count, and is 0 for
// none.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailValue returns the p-th percentile of sorted. The median is always
// reported; a higher percentile needs minBeyond samples beyond it, and a run
// without them is an error — never a lower percentile under the same name.
func tailValue(sorted []float64, p float64) (float64, error) {
	v, ok := percentile(sorted, p)
	if !ok && p > 50 {
		return v, fmt.Errorf("%d ops are too few for p%g: it needs %d samples beyond it", len(sorted), p, minBeyond)
	}
	return v, nil
}

// tally is the fail accounting of one run: every attempted op is counted,
// and every failure is counted and logged once, never retried or dropped.
type tally struct {
	attempted, failed int
	seed              int64
}

// record counts one attempted op and, when err is non-nil, one failure,
// logged with the run's seed and the op's description.
func (t *tally) record(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "FAIL seed=%d %s: %v\n", t.seed, what, err)
	}
}

func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// digest hashes a run's simulated outputs. Floating-point values are
// rounded to six significant digits (the 1e-5 relative tolerance the
// conformance ledger holds f0 to), so a change that only moves speed
// leaves the digest unchanged.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(fields ...any) {
	for _, f := range fields {
		switch v := f.(type) {
		case float64:
			fmt.Fprint(d.h, strconv.FormatFloat(v, 'e', 5, 64), ";")
		default:
			fmt.Fprint(d.h, v, ";")
		}
	}
	fmt.Fprintln(d.h)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// maxRSSMiB is the process's peak resident set.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// processCPU is the CPU time every thread of the process has used so far.
// Time the host takes the vCPU away for (steal) is not in it.
func processCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", e))
	}
	return time.Duration(ts.Nano())
}
