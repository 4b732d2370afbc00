package main

import (
	"fmt"

	"repro/internal/ringosc"
)

// numDesigns is the size of the seeded design set every workload extracts
// cold during set-up.
const numDesigns = 8

// spread is the relative half-width of the CLoad and NMOSMult draws.
const spread = 0.10

// Input streams: every generated quantity draws from its own stream of the
// workload seed, so adding a draw to one stream never shifts another.
const (
	streamDesigns = iota + 1
	streamOps
	streamSchedule
	streamBlocks
)

// subSeed mixes (seed, stream, index) with splitmix64. The benchmark keeps
// its own mixer so that its inputs never move when the library's seeding
// changes.
func subSeed(seed int64, stream, index int) int64 {
	z := uint64(seed) ^ uint64(stream)<<48 ^ uint64(index)*0x9e3779b97f4a7c15
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// design is one seeded variant of the paper's 1N1P ring.
type design struct {
	Index int
	Cfg   ringosc.Config
}

func (d design) String() string {
	return fmt.Sprintf("d%d(CLoad=%.4gnF NMOSMult=%.4f)", d.Index, d.Cfg.CLoad*1e9, d.Cfg.NMOSMult)
}

// draws is a cheap deterministic stream of uniform draws for one
// (seed, stream, index): op-sized inputs are drawn inside timed ops, where a
// math/rand source's seeding would cost more than a warm request.
type draws struct {
	seed          int64
	stream, index int
	k             int
}

func newDraws(seed int64, stream, index int) *draws {
	return &draws{seed: seed, stream: stream, index: index}
}

func (d *draws) u64() uint64 {
	d.k++
	return uint64(subSeed(d.seed, d.stream, d.index<<8|d.k))
}

// intn returns a draw in [0, n); n is a small power of two or count, so the
// modulo bias is below 2^-50.
func (d *draws) intn(n int) int { return int(d.u64() % uint64(n)) }

// float returns a draw in [0, 1).
func (d *draws) float() float64 { return float64(d.u64()>>11) / (1 << 53) }

// drawRing draws CLoad and NMOSMult within ±spread of the paper's ring.
func drawRing(d *draws) ringosc.Config {
	cfg := ringosc.DefaultConfig()
	cfg.CLoad *= 1 + spread*(2*d.float()-1)
	cfg.NMOSMult *= 1 + spread*(2*d.float()-1)
	return cfg
}

// drawDesigns returns the seed's design set.
func drawDesigns(seed int64) []design {
	ds := make([]design, numDesigns)
	for i := range ds {
		ds[i] = design{Index: i, Cfg: drawRing(newDraws(seed, streamDesigns, i))}
	}
	return ds
}

// opInputs are op i's generated inputs: the design it runs on and two
// operands. Op i's inputs depend only on (seed, i), never on how many ops
// ran before it.
type opInputs struct {
	Design int
	A, B   int
	Seed   int64 // for ops that take a seed of their own (corner samples, BER)
}

func drawOp(seed int64, i, bits int) opInputs {
	d := newDraws(seed, streamOps, i)
	return opInputs{
		Design: i % numDesigns,
		A:      d.intn(1 << bits),
		B:      d.intn(1 << bits),
		Seed:   int64(d.u64() >> 1),
	}
}

// bitsLSB expands v into n bits, least significant first.
func bitsLSB(v, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = v&(1<<i) != 0
	}
	return out
}

// adderWord interleaves two operands into RippleCarryAdder's a0,b0,a1,b1,…
// input order.
func adderWord(bits, a, b int) []bool {
	w := make([]bool, 2*bits)
	for i := 0; i < bits; i++ {
		w[2*i] = a&(1<<i) != 0
		w[2*i+1] = b&(1<<i) != 0
	}
	return w
}

func wordInt(bits []bool) int {
	v := 0
	for i, b := range bits {
		if b {
			v |= 1 << i
		}
	}
	return v
}
