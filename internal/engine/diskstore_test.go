package engine

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/diag"
	"repro/internal/ringosc"
)

func testDiskEngine(t testing.TB, dir string) *Engine {
	t.Helper()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Disk: ds}
	return testEngine(opt)
}

// TestDiskWarmRestart is the headline disk-tier claim: a brand-new engine
// (a "restarted process" — empty memory cache) pointed at the same store
// serves the artifact from disk without recomputation, certified by zero
// Newton iterations and by numerical identity of the solution.
func TestDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := ringosc.DefaultConfig()

	first := testDiskEngine(t, dir)
	_, sol1, err := first.RingPSS(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := first.Stats()
	if st.DiskMisses != 1 || st.DiskWrites != 1 {
		t.Fatalf("cold run: disk misses=%d writes=%d, want 1/1", st.DiskMisses, st.DiskWrites)
	}

	second := testDiskEngine(t, dir) // same store, empty memory tier
	dm := diag.New()
	ctx := diag.WithMetrics(context.Background(), dm)
	_, sol2, err := second.RingPSS(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st = second.Stats()
	if st.DiskHits != 1 || st.Misses != 1 {
		t.Fatalf("warm restart: disk hits=%d memory misses=%d, want 1/1", st.DiskHits, st.Misses)
	}
	if iters := dm.Get(diag.NewtonIterations); iters != 0 {
		t.Fatalf("warm restart ran %d Newton iterations, want 0 (served from disk)", iters)
	}
	if sol2.F0 != sol1.F0 || sol2.T0 != sol1.T0 || len(sol2.Grid) != len(sol1.Grid) {
		t.Fatalf("disk round trip changed the solution: f0 %g vs %g", sol2.F0, sol1.F0)
	}
	for i := range sol1.X0 {
		if sol2.X0[i] != sol1.X0[i] {
			t.Fatalf("X0[%d]: %g vs %g", i, sol2.X0[i], sol1.X0[i])
		}
	}
	for i := range sol1.Multipliers {
		if sol2.Multipliers[i] != sol1.Multipliers[i] {
			t.Fatalf("multiplier %d: %v vs %v", i, sol2.Multipliers[i], sol1.Multipliers[i])
		}
	}
	// The repeat within the restarted process is a pure memory hit.
	if _, sol3, err := second.RingPSS(ctx, cfg); err != nil || sol3 != sol2 {
		t.Fatalf("repeat after disk hit not shared: err=%v", err)
	}
}

// TestDiskWarmRestartPPV extends the restart witness to the nested chain:
// both the PPV artifact and its inner PSS stage come back from disk, and
// the reattached solution is the restarted process's shared PSS artifact.
func TestDiskWarmRestartPPV(t *testing.T) {
	dir := t.TempDir()
	cfg := ringosc.DefaultConfig()

	first := testDiskEngine(t, dir)
	_, _, p1, err := first.RingPPV(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	second := testDiskEngine(t, dir)
	dm := diag.New()
	ctx := diag.WithMetrics(context.Background(), dm)
	_, sol2, p2, err := second.RingPPV(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if iters := dm.Get(diag.NewtonIterations); iters != 0 {
		t.Fatalf("warm PPV restart ran %d Newton iterations, want 0", iters)
	}
	if st := second.Stats(); st.DiskHits != 2 { // ppv + nested pss
		t.Fatalf("disk hits = %d, want 2", st.DiskHits)
	}
	if p2.Sol != sol2 {
		t.Fatal("decoded PPV not reattached to the shared PSS artifact")
	}
	if p2.F0 != p1.F0 || p2.NormError != p1.NormError || len(p2.VI) != len(p1.VI) {
		t.Fatalf("PPV disk round trip drifted: f0 %g vs %g", p2.F0, p1.F0)
	}
	for i := range p1.VI {
		for n := range p1.VI[i] {
			if p2.VI[i][n] != p1.VI[i][n] {
				t.Fatalf("VI[%d][%d]: %g vs %g", i, n, p2.VI[i][n], p1.VI[i][n])
			}
		}
	}
}

// corruptArtifacts mutates every artifact file under dir with f and returns
// how many it touched.
func corruptArtifacts(t *testing.T, dir string, f func(path string, data []byte)) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".art") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f(path, data)
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDiskCorruptionRejectedAndHealed: flipped bits and truncation are both
// detected (never served), counted as rejects, recomputed — and the rewrite
// heals the store for the next restart.
func TestDiskCorruptionRejectedAndHealed(t *testing.T) {
	cfg := ringosc.DefaultConfig()
	cases := []struct {
		name    string
		corrupt func(path string, data []byte)
	}{
		{"bit flip in payload", func(path string, data []byte) {
			data[len(data)-1] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(path string, data []byte) {
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"emptied", func(path string, data []byte) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seed := testDiskEngine(t, dir)
			_, refSol, err := seed.RingPSS(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := refSol.F0
			if n := corruptArtifacts(t, dir, tc.corrupt); n != 1 {
				t.Fatalf("corrupted %d artifacts, want 1", n)
			}

			e := testDiskEngine(t, dir)
			_, sol, err := e.RingPSS(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.DiskRejects != 1 {
				t.Fatalf("disk rejects = %d, want 1", st.DiskRejects)
			}
			if st.DiskHits != 0 {
				t.Fatalf("corrupt artifact was served as a hit (%d)", st.DiskHits)
			}
			if st.DiskWrites != 1 {
				t.Fatalf("recompute did not rewrite the artifact (writes = %d)", st.DiskWrites)
			}
			if sol.F0 != ref {
				t.Fatalf("recomputed f0 %g, reference %g", sol.F0, ref)
			}

			// The rewrite healed the store: one more restart is a clean hit.
			healed := testDiskEngine(t, dir)
			if _, _, err := healed.RingPSS(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			if st := healed.Stats(); st.DiskHits != 1 || st.DiskRejects != 0 {
				t.Fatalf("store not healed: %+v", st)
			}
		})
	}
}

// TestDiskSchemaReject: a file that passes the container checksum but
// carries an alien payload schema is rejected at decode and recomputed.
// (The container-verified read still counts as a disk hit; the reject
// counter is what flags that the hit was unusable.)
func TestDiskSchemaReject(t *testing.T) {
	dir := t.TempDir()
	cfg := ringosc.DefaultConfig()
	seed := testDiskEngine(t, dir)
	if _, _, err := seed.RingPSS(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	// Overwrite through Put: valid container, nonsense payload.
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := seed.keys("ring", cfg)
	if err := ds.Put(key, []byte("not a pss artifact")); err != nil {
		t.Fatal(err)
	}

	e := testDiskEngine(t, dir)
	if _, _, err := e.RingPSS(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.DiskRejects != 1 || st.DiskWrites != 1 {
		t.Fatalf("schema reject not counted (or artifact not rewritten): %+v", st)
	}
}

// TestDiskConcurrentSameKeyWriters: many goroutines Put the same key while
// readers Get it; every successful read verifies, and the final file is
// intact. Run with -race this also certifies the store needs no locking
// beyond the filesystem's rename atomicity.
func TestDiskConcurrentSameKeyWriters(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "pss/00ff00ff"
	payload := func(i int) []byte {
		return []byte(fmt.Sprintf("artifact-body-%03d", i)) // same length: keys imply equal content
	}
	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ds.Put(key, payload(i)); err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
			got, err := ds.Get(key)
			if err != nil {
				t.Errorf("reader %d: %v", i, err)
				return
			}
			if !strings.HasPrefix(string(got), "artifact-body-") || len(got) != len(payload(i)) {
				t.Errorf("reader %d observed a torn payload %q", i, got)
			}
		}(i)
	}
	wg.Wait()
	if _, err := ds.Get(key); err != nil {
		t.Fatalf("final artifact unreadable: %v", err)
	}
	// No temp-file litter: every writer either renamed or removed its temp.
	entries, err := os.ReadDir(filepath.Join(ds.Dir(), "pss"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", ent.Name())
		}
	}
}

// TestDiskKeyValidation pins PathFor's refusal of keys that could escape
// the store or collide with temp files.
func TestDiskKeyValidation(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"", "pss", "/abc", "pss/", "PSS/00ff", "pss/00FF", "pss/../etc", "pss/zz..zz",
	} {
		if _, err := ds.PathFor(key); err == nil {
			t.Errorf("PathFor(%q) accepted an invalid key", key)
		}
	}
	path, err := ds.PathFor("pss/00ff")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(ds.Dir(), "pss", "00ff.art"); path != want {
		t.Errorf("PathFor = %s, want %s", path, want)
	}
}

// TestDiskFilenameStability pins the full key → filename mapping against
// the fingerprint contract: field order must not matter (same artifact
// file), any value change must (different file). A broken mapping would
// silently turn the shared store into either a cache miss machine or — far
// worse — a collision.
func TestDiskFilenameStability(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type a struct {
		Stages int
		Vdd    float64
	}
	type b struct { // same content, reversed declaration order
		Vdd    float64
		Stages int
	}
	pathOf := func(v any) string {
		p, err := ds.PathFor("pss/" + Fingerprint(v))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if pathOf(a{3, 3.0}) != pathOf(b{Vdd: 3.0, Stages: 3}) {
		t.Error("field order changed the artifact filename")
	}
	if pathOf(a{3, 3.0}) == pathOf(a{3, 3.1}) {
		t.Error("value change did not change the artifact filename")
	}
	if pathOf(a{3, 3.0}) == pathOf(a{5, 3.0}) {
		t.Error("stage change did not change the artifact filename")
	}
}

// TestArtifactCodecRoundTrip runs the binary codec standalone: a real
// solved PSS (and its PPV) must survive encode → decode bit-for-bit.
func TestArtifactCodecRoundTrip(t *testing.T) {
	e := testEngine(Options{})
	ctx := context.Background()
	cfg := ringosc.DefaultConfig()
	_, sol, p, err := e.RingPPV(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	sol2, err := decodeSolution(encodeSolution(sol))
	if err != nil {
		t.Fatal(err)
	}
	if sol2.F0 != sol.F0 || sol2.T0 != sol.T0 || sol2.Residual != sol.Residual || sol2.Iterations != sol.Iterations {
		t.Fatalf("solution scalars drifted: %+v vs %+v", sol2, sol)
	}
	for i := range sol.States {
		for n := range sol.States[i] {
			if sol2.States[i][n] != sol.States[i][n] {
				t.Fatalf("States[%d][%d] drifted", i, n)
			}
		}
	}
	p2, err := decodePPV(encodePPV(p), sol2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.NormError != p.NormError || p2.F0 != p.F0 {
		t.Fatalf("ppv scalars drifted")
	}
	for n := range p.NodeSeries {
		if (p.NodeSeries[n] == nil) != (p2.NodeSeries[n] == nil) {
			t.Fatalf("NodeSeries[%d] presence drifted", n)
		}
	}

	// Corrupt payloads never decode into silent garbage.
	enc := encodeSolution(sol)
	if _, err := decodeSolution(enc[:len(enc)/3]); err == nil {
		t.Error("truncated solution payload decoded without error")
	}
	if _, err := decodeSolution([]byte("ppv3\njunk")); err == nil {
		t.Error("wrong-schema payload decoded without error")
	}

	// Older payloads hold orbits of another phase origin (version 2: the
	// settle's endpoint; version 1: the scalar cold path's): they are
	// recomputed, so a stored PPV never meets a PSS of another origin.
	for _, v := range []string{"1", "2"} {
		if _, err := decodeSolution(append([]byte("pss"+v+"\n"), enc[len(pssSchemaTag):]...)); err == nil {
			t.Errorf("version %s solution payload decoded without error", v)
		}
		encP := encodePPV(p)
		if _, err := decodePPV(append([]byte("ppv"+v+"\n"), encP[len(ppvSchemaTag):]...), sol); err == nil {
			t.Errorf("version %s PPV payload decoded without error", v)
		}
	}
}
