package engine

import (
	"testing"

	"repro/internal/linalg"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// Two struct types with identical exported field names and values but a
// different declaration order: the canonical fingerprint must not see the
// difference (the hash addresses content, not layout).
type orderedA struct {
	Alpha  float64
	Beta   int
	Gamma  string
	Nested innerA
}

type orderedB struct {
	Nested innerB
	Gamma  string
	Beta   int
	Alpha  float64
}

type innerA struct {
	X, Y float64
}

type innerB struct {
	Y float64
	X float64
}

func TestFingerprintFieldOrderIndependence(t *testing.T) {
	a := orderedA{Alpha: 1.5, Beta: 42, Gamma: "ring", Nested: innerA{X: 3e-9, Y: -0.25}}
	b := orderedB{Alpha: 1.5, Beta: 42, Gamma: "ring", Nested: innerB{X: 3e-9, Y: -0.25}}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatalf("field order changed the fingerprint:\n a=%s\n b=%s", Fingerprint(a), Fingerprint(b))
	}
	b.Alpha = 1.5000000000000002 // one ulp away must be a different artifact
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("value change did not change the fingerprint")
	}
}

func TestFingerprintDistinguishesConfigs(t *testing.T) {
	c1 := ringosc.DefaultConfig()
	c2 := ringosc.DefaultConfig()
	if Fingerprint(c1) != Fingerprint(c2) {
		t.Fatal("identical configs must fingerprint identically")
	}
	c2.CLoad *= 1.01
	if Fingerprint(c1) == Fingerprint(c2) {
		t.Fatal("CLoad change must change the fingerprint")
	}
	if Fingerprint(ringosc.DefaultConfig()) == Fingerprint(ringosc.Config2N1P()) {
		t.Fatal("1N1P and 2N1P must not collide")
	}
	o1 := pss.Options{StepsPerPeriod: 1024}
	o2 := pss.Options{StepsPerPeriod: 512}
	if Fingerprint(c1, o1) == Fingerprint(c1, o2) {
		t.Fatal("PSS options must be part of the key")
	}
}

func TestFingerprintCollections(t *testing.T) {
	m1 := map[string]float64{"a": 1, "b": 2, "c": 3}
	m2 := map[string]float64{"c": 3, "a": 1, "b": 2}
	if Fingerprint(m1) != Fingerprint(m2) {
		t.Fatal("map insertion order changed the fingerprint")
	}
	if Fingerprint([]string{"ab", "c"}) == Fingerprint([]string{"a", "bc"}) {
		t.Fatal("string boundaries must be length-delimited")
	}
	var nilSlice []float64
	if Fingerprint(nilSlice) == Fingerprint([]float64{}) {
		t.Fatal("nil and empty slices are distinct configurations")
	}
}

// TestFingerprintRenderingPinned pins fingerprints computed by the previous
// renderer (one string conversion per value, a name sort per struct), so the
// buffer-appending renderer keeps every cache key and disk-tier file name:
// the default ring, the 2N1P ring, a non-default pss.Options, and the
// remaining kinds (map, nil interface, bool, sized integers, complex, nil
// pointer).
func TestFingerprintRenderingPinned(t *testing.T) {
	def := pss.Options{StepsPerPeriod: 1024}
	odd := pss.Options{
		GuessT: 1.25e-4, StepsPerPeriod: 256, MaxIter: 12, Tol: 1e-9,
		Method: transient.BE, SettleCycles: 10, Backend: linalg.BackendSparse,
	}
	for _, c := range []struct {
		got, want string
	}{
		{Fingerprint("ring", ringosc.DefaultConfig(), def), "bafdc08ef0c0c1e0f834f618d2286f34532e4c915edd1d15ecb42fbc0066e780"},
		{Fingerprint("ring", ringosc.Config2N1P(), def), "cf94aec718e036f08547a564b3e284b577e47ca8badfaa19ace596a418a124a5"},
		{Fingerprint("ring", ringosc.DefaultConfig(), odd), "6d64d46d20a191d4d4d023b82239bf02671acd240790ae0f482d14cb172f1292"},
		{Fingerprint(map[string]float64{"b": 0, "a": 2}, []any{nil, true, int8(-3), uint16(7), complex(1, -2), "ab"}, (*int)(nil)),
			"ada162112f26ca9dce3b025500bff99508d9dd059ea38ff6a356ffe6138bc4b3"},
	} {
		if c.got != c.want {
			t.Errorf("fingerprint %s, pinned %s", c.got, c.want)
		}
	}
}

// TestEngineKeysShareOneHash: both stages' keys carry the same content hash
// behind their stage prefix, and a warm engine's key derivation allocates
// only the two key strings and the boxed arguments.
func TestEngineKeysShareOneHash(t *testing.T) {
	e := New(Options{})
	cfg := ringosc.DefaultConfig()
	pk, vk := e.keys("ring", cfg)
	fp := Fingerprint("ring", cfg, e.pssOpt)
	if pk != "pss/"+fp || vk != "ppv/"+fp {
		t.Fatalf("keys %q, %q; want the stage prefixes on %q", pk, vk, fp)
	}
	if n := testing.AllocsPerRun(100, func() { e.keys("ring", cfg) }); n > 5 {
		t.Fatalf("key derivation allocates %v times, want ≤ 5", n)
	}
}
