package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/fourier"
	"repro/internal/linalg"
	"repro/internal/ppv"
	"repro/internal/pss"
)

// Artifact payload codec for the disk tier. The format is a hand-rolled
// little-endian binary layout rather than gob/JSON: it round-trips float64
// bit patterns exactly (the xval golden-trace discipline demands bit-stable
// artifacts), it handles complex128 (gob does not), and decoding is pure
// slice arithmetic with explicit bounds checks, so a payload that passed the
// container checksum but carries an unexpected schema still fails cleanly
// into "recompute" instead of a panic.
//
// Each payload opens with its own schema tag ("pss3\n", "ppv3\n") so the
// container format and the payload schemas can evolve independently. A PPV
// payload stores only the PPV-specific arrays: its period, grid, and PSS
// solution are reattached from the (separately cached) PSS artifact at
// decode time, mirroring how the in-memory tiers share one Solution between
// the pss/ and ppv/ entries.
//
// A tag also versions the computation that filled the payload, because a
// PPV is only valid on the orbit it was extracted from. Version 3 payloads
// hold orbits that start at the circuit-defined phase origin (node 0 rising
// through mid-rail; see package pss); version 2's started wherever the
// settle ended, and version 1's came from the scalar cold path. An older
// payload is rejected and recomputed, so a stored PPV never meets a PSS of
// another origin.

const (
	pssSchemaTag = "pss3\n"
	ppvSchemaTag = "ppv3\n"

	// maxDecodeElems caps every decoded length field. The largest honest
	// artifact is a few thousand grid points of a few hundred nodes; 1<<28
	// elements rejects absurd lengths before any allocation.
	maxDecodeElems = 1 << 28
)

// --- writer ---

type artWriter struct{ buf []byte }

func (w *artWriter) tag(s string) { w.buf = append(w.buf, s...) }

func (w *artWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *artWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *artWriter) vec(v []float64) {
	w.u64(uint64(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}

func (w *artWriter) cvec(v []complex128) {
	w.u64(uint64(len(v)))
	for _, c := range v {
		w.f64(real(c))
		w.f64(imag(c))
	}
}

// --- reader ---

type artReader struct {
	buf []byte
	off int
	err error
}

func (r *artReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("engine: decode artifact: "+format, args...)
	}
}

func (r *artReader) tag(want string) {
	if r.err != nil {
		return
	}
	if len(r.buf)-r.off < len(want) || string(r.buf[r.off:r.off+len(want)]) != want {
		r.fail("schema tag %q missing", want)
		return
	}
	r.off += len(want)
}

func (r *artReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *artReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *artReader) length(what string) int {
	n := r.u64()
	if n > maxDecodeElems {
		r.fail("%s length %d is implausible", what, n)
		return 0
	}
	return int(n)
}

func (r *artReader) vec(what string) linalg.Vec {
	n := r.length(what)
	if r.err != nil {
		return nil
	}
	v := make(linalg.Vec, n)
	for i := range v {
		v[i] = r.f64()
	}
	return v
}

func (r *artReader) cvec(what string) []complex128 {
	n := r.length(what)
	if r.err != nil {
		return nil
	}
	v := make([]complex128, n)
	for i := range v {
		re := r.f64()
		im := r.f64()
		v[i] = complex(re, im)
	}
	return v
}

func (r *artReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("engine: decode artifact: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// --- pss.Solution ---

func encodeSolution(s *pss.Solution) []byte {
	w := &artWriter{}
	w.tag(pssSchemaTag)
	w.f64(s.T0)
	w.f64(s.F0)
	w.f64(s.Residual)
	w.u64(uint64(s.Iterations))
	w.vec(s.X0)
	w.vec(s.Grid)
	w.u64(uint64(len(s.States)))
	for _, st := range s.States {
		w.vec(st)
	}
	if s.Monodromy != nil {
		w.u64(uint64(s.Monodromy.Rows))
		w.u64(uint64(s.Monodromy.Cols))
		w.vec(s.Monodromy.Data)
	} else {
		w.u64(0)
		w.u64(0)
		w.vec(nil)
	}
	w.cvec(s.Multipliers)
	return w.buf
}

func decodeSolution(payload []byte) (*pss.Solution, error) {
	r := &artReader{buf: payload}
	r.tag(pssSchemaTag)
	s := &pss.Solution{}
	s.T0 = r.f64()
	s.F0 = r.f64()
	s.Residual = r.f64()
	s.Iterations = int(r.u64())
	s.X0 = r.vec("X0")
	s.Grid = r.vec("Grid")
	nStates := r.length("States")
	if r.err == nil {
		s.States = make([]linalg.Vec, nStates)
		for i := range s.States {
			s.States[i] = r.vec("state")
		}
	}
	rows, cols := int(r.u64()), int(r.u64())
	data := r.vec("Monodromy")
	if r.err == nil && rows > 0 && cols > 0 {
		if rows*cols != len(data) {
			r.fail("monodromy %dx%d does not hold %d values", rows, cols, len(data))
		} else {
			s.Monodromy = &linalg.Mat{Rows: rows, Cols: cols, Data: data}
		}
	}
	s.Multipliers = r.cvec("Multipliers")
	if err := r.done(); err != nil {
		return nil, err
	}
	if len(s.Grid) != len(s.States) {
		return nil, fmt.Errorf("engine: decode artifact: %d grid points but %d states",
			len(s.Grid), len(s.States))
	}
	if len(s.Grid) == 0 || s.T0 <= 0 {
		return nil, fmt.Errorf("engine: decode artifact: empty or aperiodic solution")
	}
	return s, nil
}

// --- ppv.PPV (PPV-specific arrays only; the Solution rides its own entry) ---

func encodePPV(p *ppv.PPV) []byte {
	w := &artWriter{}
	w.tag(ppvSchemaTag)
	w.f64(p.NormError)
	w.u64(uint64(len(p.VI)))
	for _, v := range p.VI {
		w.vec(v)
	}
	w.u64(uint64(len(p.NodeSeries)))
	for _, s := range p.NodeSeries {
		if s == nil {
			w.u64(0)
			continue
		}
		w.u64(1)
		w.cvec(s.Coef)
	}
	return w.buf
}

// decodePPV rebuilds a PPV around the given (already decoded or cached) PSS
// solution; the stored arrays must be consistent with its grid.
func decodePPV(payload []byte, sol *pss.Solution) (*ppv.PPV, error) {
	r := &artReader{buf: payload}
	r.tag(ppvSchemaTag)
	p := &ppv.PPV{T0: sol.T0, F0: sol.F0, Grid: sol.Grid, Sol: sol}
	p.NormError = r.f64()
	nVI := r.length("VI")
	if r.err == nil {
		p.VI = make([]linalg.Vec, nVI)
		for i := range p.VI {
			p.VI[i] = r.vec("vi")
		}
	}
	nSeries := r.length("NodeSeries")
	if r.err == nil {
		p.NodeSeries = make([]*fourier.Series, nSeries)
		for i := range p.NodeSeries {
			if r.u64() == 0 {
				continue
			}
			p.NodeSeries[i] = &fourier.Series{Coef: r.cvec("coef")}
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if len(p.VI) != len(sol.Grid) {
		return nil, fmt.Errorf("engine: decode artifact: PPV has %d grid rows, solution has %d",
			len(p.VI), len(sol.Grid))
	}
	return p, nil
}
