package load_test

import (
	"strings"
	"testing"

	"repro/sim"
	"repro/sim/load"
)

// TestServerServesAndDrains: the persistent server serves batches
// across the closed loop, each batch counts the workers it created,
// and Drain finds process, frame, and commit counts back at the
// post-warm-up baseline under every strategy — the scale-down leak
// invariant at its source.
func TestServerServesAndDrains(t *testing.T) {
	for _, via := range sim.Strategies() {
		if via == sim.EmulatedFork {
			continue // Θ(resident bytes) per creation; covered in the cluster tests at tiny scale
		}
		t.Run(via.String(), func(t *testing.T) {
			s, err := (*load.Templates)(nil).Server(load.Config{
				Via: via, HeapBytes: 4 << 20, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if s.WarmupNanos() == 0 {
				t.Error("warm-up took no virtual time")
			}
			b1, err := s.ServeBatch(8, 0)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := s.ServeBatch(5, 0)
			if err != nil {
				t.Fatal(err)
			}
			if b1.Served != 8 || b2.Served != 5 || b1.Failed+b2.Failed != 0 {
				t.Errorf("batches served %d/%d failed %d/%d, want 8/5 0/0",
					b1.Served, b2.Served, b1.Failed, b2.Failed)
			}
			if b1.Creations != 8 || b2.Creations != 5 {
				t.Errorf("batches created %d/%d workers, want 8/5", b1.Creations, b2.Creations)
			}
			if b1.Nanos == 0 || b2.Nanos == 0 {
				t.Error("batch consumed no virtual time")
			}
			if rss := s.PeakRSSBytes(); rss < 4<<20 {
				t.Errorf("peak RSS %d below resident heap", rss)
			}
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := s.Drain(); err == nil {
				t.Error("double Drain did not error")
			}
			if _, err := s.ServeBatch(1, 0); err == nil {
				t.Error("ServeBatch after Drain did not error")
			}
		})
	}
}

// TestServerBudgetStopsLaunching: a batch under a virtual-time budget
// serves fewer requests than offered — the leftover is the caller's
// backlog — and identical configs leave identical leftovers, down to
// the batch that serves them (the reconcile loop's determinism rests
// on this).
func TestServerBudgetStopsLaunching(t *testing.T) {
	run := func() [2]load.Batch {
		t.Helper()
		s, err := (*load.Templates)(nil).Server(load.Config{
			Via: sim.ForkExec, HeapBytes: 16 << 20, Workers: 2, RequestWorkMiB: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := s.Drain(); err != nil {
				t.Error(err)
			}
		}()
		// One fork of a 16 MiB parent costs ~1ms virtual; 2ms cannot
		// fit 50 requests.
		b, err := s.ServeBatch(50, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		rest, err := s.ServeBatch(50-b.Served, 0)
		if err != nil {
			t.Fatal(err)
		}
		return [2]load.Batch{b, rest}
	}
	first := run()
	b := first[0]
	if b.Served >= 50 {
		t.Errorf("served all %d requests under a 2ms budget", b.Served)
	}
	if b.Served == 0 {
		t.Error("budget served nothing")
	}
	if b.Nanos < 2_000_000 {
		t.Errorf("batch stopped at %dns, before the budget", b.Nanos)
	}
	if rest := first[1]; b.Served+rest.Served != 50 {
		t.Errorf("budgeted %d + leftover %d requests, want 50", b.Served, rest.Served)
	}
	if again := run(); again != first {
		t.Errorf("budgeted batches not deterministic: %+v vs %+v", first, again)
	}
}

// TestServerWarmupForkVsSpawn pins the cluster experiment's premise:
// with a dirty heap and a pre-created pool, a fork machine's warm-up
// (Θ(heap) page-table duplication per worker) costs more virtual time
// than a spawn machine's, and grows with the heap faster than spawn's.
func TestServerWarmupForkVsSpawn(t *testing.T) {
	warm := func(t *testing.T, via sim.Strategy, heap uint64) uint64 {
		t.Helper()
		s, err := (*load.Templates)(nil).Server(load.Config{Via: via, HeapBytes: heap, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := s.Drain(); err != nil {
				t.Error(err)
			}
		}()
		if via == sim.ForkExec && s.WarmupPTECopies() == 0 {
			t.Error("fork warm-up copied no PTEs")
		}
		return s.WarmupNanos()
	}
	small, big := uint64(8<<20), uint64(64<<20)
	fork, spawn := map[uint64]uint64{}, map[uint64]uint64{}
	for _, heap := range []uint64{small, big} {
		t.Run(load.HumanBytes(heap), func(t *testing.T) {
			fork[heap], spawn[heap] = warm(t, sim.ForkExec, heap), warm(t, sim.Spawn, heap)
			if fork[heap] <= spawn[heap] {
				t.Errorf("fork warm-up %dns not above spawn %dns", fork[heap], spawn[heap])
			}
		})
	}
	if fork[big] <= fork[small] {
		t.Errorf("fork warm-up flat across heap growth: %d vs %d", fork[small], fork[big])
	}
	// Spawn still dirties the bigger heap; only the pool-creation part
	// must stay flat. Compare the fork:spawn gap instead of absolutes.
	if fork[big]-fork[small] <= spawn[big]-spawn[small] {
		t.Errorf("heap growth cost fork %d vs spawn %d, want fork to pay more",
			fork[big]-fork[small], spawn[big]-spawn[small])
	}
}

// TestServerRunStampedMatchesCold: a server's measured serve pass — the
// rolling wave's replacement phase — reports the same Metrics whether
// the server was cold-booted or stamped from a template (fresh or
// recycled shell), and a drained server refuses it.
func TestServerRunStampedMatchesCold(t *testing.T) {
	cfg := load.Config{Via: sim.ForkExec, CPUs: 2, Requests: 6, HeapBytes: 4 << 20, Workers: 3}
	run := func(tc *load.Templates) []byte {
		t.Helper()
		s, err := tc.Server(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if m.Requests != 6 {
			t.Errorf("serve pass completed %d requests, want 6", m.Requests)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err == nil {
			t.Error("Run after Drain succeeded")
		}
		return metricsJSON(t, m)
	}
	cold := run(nil)
	tc := load.NewTemplates()
	for i := 1; i <= 2; i++ {
		if got := run(tc); string(got) != string(cold) {
			t.Errorf("stamp %d differs from cold:\nstamped: %s\ncold:    %s", i, got, cold)
		}
	}
}

// TestDrainNamesLeaks: Drain checks its own books. A process left on a
// stamped Server's machine — one worker beyond the pool it parked —
// keeps the process, frame and commit counts off the post-warm-up
// baseline, and Drain's error names each of them.
func TestDrainNamesLeaks(t *testing.T) {
	s, err := load.NewTemplates().Server(load.Config{Via: sim.Spawn, HeapBytes: 4 << 20, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.System().Command("true").Via(sim.Spawn).Create(); err != nil {
		t.Fatal(err)
	}
	err = s.Drain()
	if err == nil {
		t.Fatal("Drain left a stray process and reported no leak")
	}
	for _, book := range []string{"processes", "frames", "commit"} {
		if !strings.Contains(err.Error(), book) {
			t.Errorf("Drain error %q does not name %s", err, book)
		}
	}
	if err := s.Drain(); err == nil || strings.Contains(err.Error(), "processes") {
		t.Errorf("second Drain = %v, want the drained-server error", err)
	}
}
