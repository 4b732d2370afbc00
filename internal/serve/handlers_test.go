package serve_test

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/transient"
)

// doRaw posts a raw body and returns the response (for malformed-input
// cases the typed client cannot produce).
func doRaw(t *testing.T, c *serve.Client, path, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestRequestValidation drives every endpoint with malformed requests and
// asserts each is refused up front with 400 + code "bad_request" — no
// solver runs for garbage input.
func TestRequestValidation(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	ctx := context.Background()

	cases := []struct {
		name string
		call func() error
	}{
		{"pss even stages", func() error {
			_, err := c.PSS(ctx, serve.PSSRequest{Ring: serve.RingSpec{Stages: 4}})
			return err
		}},
		{"pss unknown variant", func() error {
			_, err := c.PSS(ctx, serve.PSSRequest{Ring: serve.RingSpec{Variant: "3n2p"}})
			return err
		}},
		{"pss negative vdd", func() error {
			_, err := c.PSS(ctx, serve.PSSRequest{Ring: serve.RingSpec{Vdd: -3}})
			return err
		}},
		{"sweep empty amps", func() error {
			_, err := c.GAESweep(ctx, serve.SweepRequest{SyncHarm: 1})
			return err
		}},
		{"sweep non-positive amp", func() error {
			_, err := c.GAESweep(ctx, serve.SweepRequest{SyncHarm: 1, Amps: []float64{1e-6, 0}})
			return err
		}},
		{"sweep zero harm", func() error {
			_, err := c.GAESweep(ctx, serve.SweepRequest{Amps: []float64{1e-6}})
			return err
		}},
		{"sweep node out of range", func() error {
			_, err := c.GAESweep(ctx, serve.SweepRequest{SyncHarm: 1, SyncNode: 99, Amps: []float64{1e-6}})
			return err
		}},
		{"transient bad method", func() error {
			_, err := c.Transient(ctx, serve.TransientRequest{Method: "euler"})
			return err
		}},
		{"transient absurd cycles", func() error {
			_, err := c.Transient(ctx, serve.TransientRequest{Cycles: 1e9})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			var ae *serve.APIError
			if !errors.As(err, &ae) {
				t.Fatalf("err = %v, want *serve.APIError", err)
			}
			if ae.Status != http.StatusBadRequest || ae.Code != serve.CodeBadRequest {
				t.Fatalf("got %d/%s, want 400/%s: %v", ae.Status, ae.Code, serve.CodeBadRequest, err)
			}
		})
	}
}

// TestStrictBodyDecoding: syntactically broken JSON and unknown fields are
// both 400s — a misspelled option must fail loudly, not silently run
// defaults.
func TestStrictBodyDecoding(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	for _, body := range []string{
		`{"ring": {`,
		`{"rng": {"stages": 3}}`,
		`{"ring": {"stages": 3}, "typo_option": true}`,
	} {
		resp := doRaw(t, c, "/v1/pss", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestRouting pins 404 for unknown paths and 405 for wrong methods (the Go
// 1.22 pattern router's contract, which clients depend on).
func TestRouting(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	resp := doRaw(t, c, "/v1/nope", `{}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", resp.StatusCode)
	}
	getResp, err := c.HTTPClient.Get(c.BaseURL + "/v1/pss")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST route: status %d, want 405", getResp.StatusCode)
	}
}

// TestErrorsIsAcrossTheWire is the taxonomy round trip end-to-end: gear2 +
// adaptive is refused inside the transient package with a wrapped
// ErrUnsupported, which must surface to the HTTP client as a 400
// "unsupported" envelope that still satisfies errors.Is against the same
// sentinel the in-process caller would match.
func TestErrorsIsAcrossTheWire(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	_, err := c.Transient(context.Background(), serve.TransientRequest{Method: "gear2", Adaptive: true})
	if err == nil {
		t.Fatal("gear2+adaptive: want error")
	}
	var ae *serve.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T %v, want *serve.APIError", err, err)
	}
	if ae.Status != http.StatusBadRequest || ae.Code != serve.CodeUnsupported {
		t.Fatalf("got %d/%s, want 400/%s", ae.Status, ae.Code, serve.CodeUnsupported)
	}
	if !errors.Is(err, transient.ErrUnsupported) {
		t.Fatal("errors.Is(err, transient.ErrUnsupported) = false across the wire")
	}
}

// TestPSSFixedPointIs422: at 0.5 V the ring's inverters never switch, so
// settling lands on the equilibrium (swing ~5e-8 V) and any period guess
// passes the periodicity test. The request must fail as 422
// "no_convergence" instead of reporting a frequency the solve never
// measured.
func TestPSSFixedPointIs422(t *testing.T) {
	_, c := newTestServer(t, serve.Options{Engine: engine.New(engine.Options{})})
	resp, err := c.PSS(context.Background(), serve.PSSRequest{Ring: serve.RingSpec{Vdd: 0.5}})
	if err == nil {
		t.Fatalf("vdd 0.5: got 200 with f0 %g Hz, want 422", resp.F0)
	}
	var ae *serve.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T %v, want *serve.APIError", err, err)
	}
	if ae.Status != http.StatusUnprocessableEntity || ae.Code != serve.CodeNoConvergence {
		t.Fatalf("got %d/%s, want 422/%s", ae.Status, ae.Code, serve.CodeNoConvergence)
	}
	if !errors.Is(err, solver.ErrNoConvergence) {
		t.Fatal("errors.Is(err, solver.ErrNoConvergence) = false across the wire")
	}
}

// TestPSSEndpoint runs the full happy path: a cold request computes (Cold
// true), the repeat is served warm, and the physics summary is sane.
func TestPSSEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("cold PSS solve skipped in -short")
	}
	_, c := newTestServer(t, serve.Options{})
	ctx := context.Background()

	first, err := c.PSS(ctx, serve.PSSRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Cold {
		t.Error("first request should report cold")
	}
	if first.F0 <= 0 || first.T0 <= 0 || math.Abs(first.F0*first.T0-1) > 1e-9 {
		t.Errorf("inconsistent f0/T0: %g Hz, %g s", first.F0, first.T0)
	}
	if first.Nodes != 3 || len(first.Multipliers) != 3 {
		t.Errorf("3-stage ring: nodes=%d multipliers=%d", first.Nodes, len(first.Multipliers))
	}
	if !first.Stable {
		t.Error("the paper's ring is orbitally stable")
	}

	again, err := c.PSS(ctx, serve.PSSRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Cold {
		t.Error("repeat request should be warm")
	}
	if again.F0 != first.F0 {
		t.Errorf("warm f0 %g != cold f0 %g", again.F0, first.F0)
	}
}

// TestPPVAndSweepEndpoints exercises the macromodel chain over HTTP: PPV
// harmonics come back bounded and the locking sweep brackets f0.
func TestPPVAndSweepEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("cold PPV chain skipped in -short")
	}
	_, c := newTestServer(t, serve.Options{})
	ctx := context.Background()

	p, err := c.PPV(ctx, serve.PPVRequest{Harmonics: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(p.Nodes))
	}
	for n, hs := range p.Nodes {
		if len(hs) != 4 {
			t.Fatalf("node %d: %d harmonics, want 4", n, len(hs))
		}
		for _, h := range hs {
			if h.Magnitude < 0 || math.Abs(h.Phase) > 0.5 {
				t.Errorf("node %d h%d: magnitude %g phase %g cycles", n, h.Harmonic, h.Magnitude, h.Phase)
			}
		}
	}

	sw, err := c.GAESweep(ctx, serve.SweepRequest{
		SyncNode: 0, SyncHarm: 1, Amps: []float64{2e-6, 8e-6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cold {
		t.Error("sweep after PPV should ride the warm macromodel")
	}
	if len(sw.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(sw.Points))
	}
	for _, pt := range sw.Points {
		if !pt.Locks {
			continue
		}
		if !(pt.F1Lo <= sw.F0 && sw.F0 <= pt.F1Hi) {
			t.Errorf("amp %g: band [%g, %g] does not bracket f0 %g", pt.Amp, pt.F1Lo, pt.F1Hi, sw.F0)
		}
	}
}

// TestTransientEndpoints runs a short transient both buffered and
// streaming and checks the two deliveries agree.
func TestTransientEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("transient integration skipped in -short")
	}
	_, c := newTestServer(t, serve.Options{})
	ctx := context.Background()
	req := serve.TransientRequest{Cycles: 0.5, StepsPerCycle: 64}

	buf, err := c.Transient(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf.T) == 0 || len(buf.T) != len(buf.X) {
		t.Fatalf("buffered: %d times, %d states", len(buf.T), len(buf.X))
	}

	var rows []serve.StreamRow
	var done *serve.StreamRow
	err = c.TransientStream(ctx, req, func(r serve.StreamRow) error {
		if r.Done {
			done = &r
			return nil
		}
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if done == nil {
		t.Fatal("stream ended without a Done row")
	}
	if len(rows) != len(buf.T) {
		t.Fatalf("stream delivered %d samples, buffered %d", len(rows), len(buf.T))
	}
	if done.Steps != buf.Steps {
		t.Errorf("stream steps %d != buffered %d", done.Steps, buf.Steps)
	}
	for i := range rows {
		if rows[i].T != buf.T[i] {
			t.Fatalf("sample %d: stream t=%g buffered t=%g", i, rows[i].T, buf.T[i])
		}
	}
}

// TestTransientSizeCaps: a transient whose steps or recorded points pass
// the documented caps is refused with a 400 before it integrates. Each
// request is within the per-field bounds on cycles, steps_per_cycle and
// record; without the caps the first runs 81.9 M steps and the second
// records 102,401 points. A short deadline keeps an admitted run from
// passing for a refusal.
func TestTransientSizeCaps(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	for name, req := range map[string]serve.TransientRequest{
		"steps":  {Cycles: 10000, StepsPerCycle: 8192, Record: 8192},
		"points": {Cycles: 100, StepsPerCycle: 1024},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := c.Transient(ctx, req)
		cancel()
		var ae *serve.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != serve.CodeBadRequest {
			t.Errorf("%s: err = %v, want a 400 %s", name, err, serve.CodeBadRequest)
		}
	}
}

// TestHealthzAndMetrics checks the operational endpoints outside the
// admission path.
func TestHealthzAndMetrics(t *testing.T) {
	srv, c := newTestServer(t, serve.Options{})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.Server.MaxInFlight != 8*srv.Engine().Workers() {
		t.Errorf("max_in_flight = %d, want %d", m.Server.MaxInFlight, 8*srv.Engine().Workers())
	}
	if m.Mem.HeapAllocBytes == 0 || m.Mem.Goroutines == 0 {
		t.Errorf("empty memory section: %+v", m.Mem)
	}
}
