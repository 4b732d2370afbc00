package variation

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// Sampler draws per-parameter process corners in σ units. Implementations
// must make Draw a pure function of (receiver, i): Monte-Carlo samples are
// evaluated concurrently and out of order, and the drawn corners — and every
// statistic built on them — must be bit-identical at any worker count.
type Sampler interface {
	// Name identifies the sampler in reports and cache keys.
	Name() string
	// Draw fills deltas with sample i's per-parameter offsets in σ units,
	// clipped to ±3σ.
	Draw(i int, deltas []float64)
}

// clipSigma truncates a draw to the ±3σ window used throughout this package
// (process models are not trusted further out, and the PSS pipeline is not
// guaranteed to converge there either).
func clipSigma(d float64) float64 {
	if d > 3 {
		return 3
	}
	if d < -3 {
		return -3
	}
	return d
}

// PseudoSampler is the classic pseudo-random Gaussian sampler: sample i
// draws from rand.New(rand.NewSource(parallel.SubSeed(Seed, i))), one
// NormFloat64 per parameter, clipped at ±3σ: the draws Monte Carlo made
// before the sampler API, bit for bit, so no golden number moved with it.
type PseudoSampler struct {
	Seed int64
}

func (p PseudoSampler) Name() string { return "pseudo" }

func (p PseudoSampler) Draw(i int, deltas []float64) {
	rng := rand.New(rand.NewSource(parallel.SubSeed(p.Seed, i)))
	for j := range deltas {
		deltas[j] = clipSigma(rng.NormFloat64())
	}
}

// SobolSampler draws from a digitally scrambled Sobol' low-discrepancy
// sequence mapped through the inverse normal CDF, clipped at ±3σ. Quasi
// Monte Carlo covers the parameter box far more evenly than pseudo-random
// sampling, so smooth ensemble statistics (mean f0, lock-width spread)
// converge near O(1/n) instead of O(1/√n) — at the full-pipeline cost per
// sample of this package, that is the difference between 32 and 1000
// corners. The scramble is a per-dimension random digital (XOR) shift
// derived from Seed: it preserves the net's equidistribution while making
// independent replications possible (re-run with another seed to get an
// error estimate, exactly like re-seeding the pseudo sampler).
type SobolSampler struct {
	seed  int64
	dirs  [][32]uint32 // direction numbers, one set per dimension
	shift []uint32     // per-dimension digital shift
}

// NewSobolSampler builds a scrambled dim-dimensional Sobol sampler.
// Direction numbers follow Joe & Kuo's tables; up to MaxSobolDim dimensions
// are supported (more than any Param set this package defines).
func NewSobolSampler(dim int, seed int64) (*SobolSampler, error) {
	if dim < 1 || dim > MaxSobolDim {
		return nil, fmt.Errorf("variation: sobol sampler supports 1..%d dimensions, got %d", MaxSobolDim, dim)
	}
	s := &SobolSampler{
		seed:  seed,
		dirs:  make([][32]uint32, dim),
		shift: make([]uint32, dim),
	}
	// Dimension 0 is the van der Corput sequence in base 2: m_j = 1 for all j.
	for j := 0; j < 32; j++ {
		s.dirs[0][j] = 1 << (31 - j)
	}
	for d := 1; d < dim; d++ {
		p := sobolPrimitives[d-1]
		deg := len(p.m)
		v := &s.dirs[d]
		for j := 0; j < deg; j++ {
			v[j] = p.m[j] << (31 - j)
		}
		for j := deg; j < 32; j++ {
			v[j] = v[j-deg] ^ (v[j-deg] >> uint(deg))
			for k := 1; k < deg; k++ {
				if (p.a>>(deg-1-k))&1 == 1 {
					v[j] ^= v[j-k]
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for d := range s.shift {
		s.shift[d] = rng.Uint32()
	}
	return s, nil
}

func (s *SobolSampler) Name() string { return "sobol" }

// Draw computes point i of the scrambled sequence by the Gray-code XOR
// construction (random access; no per-sampler mutable state).
func (s *SobolSampler) Draw(i int, deltas []float64) {
	g := uint32(i) ^ (uint32(i) >> 1)
	for d := range deltas {
		if d >= len(s.dirs) {
			panic("variation: sobol Draw beyond constructed dimension")
		}
		x := s.shift[d]
		for j, bits := 0, g; bits != 0; j, bits = j+1, bits>>1 {
			if bits&1 == 1 {
				x ^= s.dirs[d][j]
			}
		}
		// Centre each 2⁻³² cell so u is never exactly 0 or 1.
		u := (float64(x) + 0.5) / (1 << 32)
		deltas[d] = clipSigma(invNormCDF(u))
	}
}

// MaxSobolDim is the largest dimension NewSobolSampler supports.
var MaxSobolDim = len(sobolPrimitives) + 1

// sobolPrimitives lists the primitive polynomials (degree implicit in
// len(m), coefficient bits in a) and initial direction values m for Sobol
// dimensions 2..MaxSobolDim, after Joe & Kuo (ACM TOMS 29(1), 2003).
var sobolPrimitives = []struct {
	a uint32
	m []uint32
}{
	{0, []uint32{1}},
	{1, []uint32{1, 3}},
	{1, []uint32{1, 3, 1}},
	{2, []uint32{1, 1, 1}},
	{1, []uint32{1, 1, 3, 3}},
	{4, []uint32{1, 3, 5, 13}},
	{2, []uint32{1, 1, 5, 5, 17}},
	{4, []uint32{1, 1, 5, 5, 5}},
	{7, []uint32{1, 1, 7, 11, 19}},
}

// invNormCDF is Acklam's rational approximation to the standard normal
// quantile function (relative error < 1.2e-9 over (0,1)), refined by one
// Halley step so the composition with the Sobol grid is accurate to near
// machine precision.
func invNormCDF(p float64) float64 {
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	var x float64
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((icdfC[0]*q+icdfC[1])*q+icdfC[2])*q+icdfC[3])*q+icdfC[4])*q + icdfC[5]) /
			((((icdfD[0]*q+icdfD[1])*q+icdfD[2])*q+icdfD[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((icdfA[0]*r+icdfA[1])*r+icdfA[2])*r+icdfA[3])*r+icdfA[4])*r + icdfA[5]) * q /
			(((((icdfB[0]*r+icdfB[1])*r+icdfB[2])*r+icdfB[3])*r+icdfB[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((icdfC[0]*q+icdfC[1])*q+icdfC[2])*q+icdfC[3])*q+icdfC[4])*q + icdfC[5]) /
			((((icdfD[0]*q+icdfD[1])*q+icdfD[2])*q+icdfD[3])*q + 1)
	}
	// One Halley refinement against the exact CDF.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

var (
	icdfA = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	icdfB = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	icdfC = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	icdfD = [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
)
