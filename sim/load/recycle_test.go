package load_test

import (
	"encoding/json"
	"testing"

	"repro/sim"
	"repro/sim/load"
)

// metricsJSON flattens Metrics for byte comparison.
func metricsJSON(t *testing.T, m *load.Metrics) []byte {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTemplateRecycleNoBleed is the machine-reuse isolation test: after
// Templates.Run releases a stamped machine back into its template's
// recycle pool, the next stamp lands in that recycled shell — and must
// behave exactly like a stamp into a fresh shell, which must behave
// exactly like a cold boot. Any state bleeding through the recycled
// allocations (a stale frame, a surviving process, an unreset counter)
// shows up as a byte difference here.
func TestTemplateRecycleNoBleed(t *testing.T) {
	for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
		t.Run(via.String(), func(t *testing.T) {
			cfg := load.Config{
				Scenario: load.Prefork, Via: via, CPUs: 2,
				Requests: 8, HeapBytes: 4 << 20,
			}
			tc := load.NewTemplates()
			cold, err := load.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := metricsJSON(t, cold)
			// Run 1 stamps a fresh shell; runs 2 and 3 stamp the shell
			// the previous run released.
			for i := 1; i <= 3; i++ {
				m, err := tc.Run(cfg)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if got := metricsJSON(t, m); string(got) != string(want) {
					t.Fatalf("run %d differs from cold boot:\nrecycled: %s\ncold:     %s", i, got, want)
				}
			}
		})
	}
}

// TestTemplateRecycleAcrossScenarios interleaves different workloads
// of one shape through its template's recycle pool: a shell that just
// ran one scenario must serve the next with no cross-scenario bleed.
func TestTemplateRecycleAcrossScenarios(t *testing.T) {
	base := load.Config{Via: sim.ForkExec, CPUs: 2, Requests: 6, HeapBytes: 4 << 20}
	prefork, pipeline := base, base
	prefork.Scenario = load.Prefork
	pipeline.Scenario = load.Pipeline

	tc := load.NewTemplates()
	first, err := tc.Run(prefork)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Run(pipeline); err != nil {
		t.Fatal(err)
	}
	again, err := tc.Run(prefork)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := metricsJSON(t, again), metricsJSON(t, first); string(got) != string(want) {
		t.Errorf("prefork run after a pipeline run through the same pool differs:\nafter:  %s\nbefore: %s", got, want)
	}
}

// TestServerTemplateRecycleReturnsToBaseline drives the server recycle
// path end to end through the cache: stamp a Server from its template,
// serve, drain (which checks the books and recycles the machine into
// the template), then stamp and serve again. The second server must
// reproduce the first byte for byte — batches and warm-up numbers — and
// every drain must find process, frame, and commit counts back at the
// post-warm-up baseline.
func TestServerTemplateRecycleReturnsToBaseline(t *testing.T) {
	for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
		t.Run(via.String(), func(t *testing.T) {
			cfg := load.Config{Via: via, CPUs: 1, HeapBytes: 4 << 20, Workers: 2}
			tc := load.NewTemplates()
			type run struct {
				batch load.Batch
				warm  uint64
			}
			one := func() run {
				t.Helper()
				s, err := tc.Server(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := s.ServeBatch(8, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Drain(); err != nil {
					t.Fatal(err)
				}
				return run{batch: b, warm: s.WarmupNanos()}
			}
			if r1, r2 := one(), one(); r1 != r2 {
				t.Errorf("recycled server run differs from first:\nfirst:  %+v\nsecond: %+v", r1, r2)
			}
		})
	}
}

// TestServerDrainSevers: once Drain recycles a stamped server's machine
// into the template, the server's handles are gone — a late ServeBatch
// must fail rather than touch whatever machine occupies the recycled
// shell next.
func TestServerDrainSevers(t *testing.T) {
	cfg := load.Config{Via: sim.Spawn, CPUs: 1, HeapBytes: 4 << 20, Workers: 1}
	s, err := load.NewTemplates().Server(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ServeBatch(1, 0); err == nil {
		t.Error("ServeBatch succeeded on a drained, recycled server")
	}
	if err := s.Drain(); err == nil {
		t.Error("second Drain succeeded")
	}
}
