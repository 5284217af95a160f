package load

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/sim"
	"repro/sim/fault"
)

// TestTemplateRunMatchesColdRun is the clone-equivalence property: for
// every creation strategy, CPU count, and scenario, a machine stamped
// from a frozen template must produce byte-identical JSON metrics to a
// machine built cold — same virtual nanoseconds, same fault counts,
// same per-CPU utilisation, everything. The stamped side runs through
// a shared Templates cache, so the test also exercises one template
// serving many scenarios and strategies of the same warm Shape. The
// Migrate row pins the stamped (and recycled) migration source against
// a cold one, vfork's refusal included.
func TestTemplateRunMatchesColdRun(t *testing.T) {
	tc := NewTemplates()
	for _, cpus := range []int{1, 2, 8} {
		for _, scen := range []Scenario{Prefork, ForkStorm, SMPServer, Migrate} {
			for _, via := range append(sim.Strategies(), sim.EagerForkExec) {
				cfg := Config{
					Scenario: scen, Via: via, CPUs: cpus,
					Requests: 3, HeapBytes: 4 << 20,
				}
				t.Run(fmt.Sprintf("%s/%v/%dcpu", scen, via, cpus), func(t *testing.T) {
					cold, err := Run(cfg)
					if err != nil {
						t.Fatalf("cold run: %v", err)
					}
					stamped, err := tc.Run(cfg)
					if err != nil {
						t.Fatalf("stamped run: %v", err)
					}
					cj, err := json.Marshal(cold)
					if err != nil {
						t.Fatal(err)
					}
					sj, err := json.Marshal(stamped)
					if err != nil {
						t.Fatal(err)
					}
					if string(cj) != string(sj) {
						t.Errorf("stamped metrics diverged from cold:\ncold:    %s\nstamped: %s", cj, sj)
					}
				})
			}
		}
	}
}

// TestTemplateShapeSharing pins the cache key: configs differing only
// in scenario, strategy, or request volume share one template; configs
// differing in warm shape (heap, CPUs) do not. A Server of the same
// machine fields is a different shape — its pool is parked in the
// template — so it gets its own entry in the one map, and a second
// Server of that shape stamps from it instead of warming again.
func TestTemplateShapeSharing(t *testing.T) {
	tc := NewTemplates()
	base := Config{Scenario: Prefork, Via: sim.Spawn, Requests: 2, HeapBytes: 4 << 20}
	a, err := tc.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	same := base
	same.Scenario, same.Via, same.Requests = ForkStorm, sim.ForkExec, 9
	if b, _ := tc.Get(same); b != a {
		t.Error("same warm shape resolved to a different template")
	}
	diff := base
	diff.HeapBytes = 8 << 20
	if c, _ := tc.Get(diff); c == a {
		t.Error("different heap resolved to the same template")
	}

	var st *Template
	for i := 1; i <= 2; i++ {
		s, err := tc.Server(base)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		got := tc.shapes[base.serverShape()]
		if got == nil || got == a {
			t.Fatalf("server %d: server shape resolved to the scenario template", i)
		}
		if st != nil && got != st {
			t.Errorf("server %d warmed a second template for its shape", i)
		}
		st = got
		if len(tc.shapes) != 3 {
			t.Errorf("server %d: %d templates cached, want 3 (two machine shapes, one server shape)", i, len(tc.shapes))
		}
		if _, err := st.Stamp(base); err == nil {
			t.Error("stamped a scenario machine from a server template")
		}
	}
}

// TestTemplateStampShapeMismatch pins the error path: stamping a
// config whose resolved shape differs from the template's must fail
// rather than silently produce a wrong-shaped machine.
func TestTemplateStampShapeMismatch(t *testing.T) {
	tpl, err := newTemplate(Config{Scenario: Prefork, Via: sim.Spawn, HeapBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpl.Stamp(Config{Scenario: Prefork, Via: sim.Spawn, HeapBytes: 8 << 20}); err == nil {
		t.Error("stamp with mismatched heap succeeded")
	}
}

// TestRunDispatchIsShared: the cold path is the nil cache's Run, so it
// and a live cache vet a config identically — a fault schedule on a
// scenario that cannot tolerate one fails with the same error on both.
func TestRunDispatchIsShared(t *testing.T) {
	cfg := Config{Scenario: Pipeline, HeapBytes: 4 << 20, Faults: fault.Chaos(1, 0)}
	_, coldErr := Run(cfg)
	_, stampErr := NewTemplates().Run(cfg)
	if coldErr == nil || stampErr == nil {
		t.Fatalf("pipeline accepted a fault schedule: cold %v, stamped %v", coldErr, stampErr)
	}
	if coldErr.Error() != stampErr.Error() {
		t.Errorf("cold and stamped paths disagree:\ncold:    %v\nstamped: %v", coldErr, stampErr)
	}
}

// TestNegativeCountsRejected: a negative count, a CPU count past
// cost.MaxCPUs, or RAM from 1 byte to one byte short of a page is junk
// no default can resolve. Every entry point — the cold Run, a live
// cache's Run, and Server on either — rejects it with a *SpecError
// naming the field before any machine boots, instead of panicking
// mid-run or failing with the kernel's untyped error.
func TestNegativeCountsRejected(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"Requests", Config{Scenario: NetLB, Requests: -3}},
		{"Requests", Config{Scenario: BuildFarm, Requests: -5}},
		{"Workers", Config{Scenario: ForkStorm, Workers: -1, Requests: 1}},
		{"Window", Config{Scenario: Prefork, Window: -2}},
		{"Nodes", Config{Scenario: KVShard, Nodes: -2}},
		{"RequestWorkMiB", Config{Scenario: Prefork, RequestWorkMiB: -1}},
		{"CPUs", Config{Scenario: Prefork, CPUs: 65}},
		{"CPUs", Config{Scenario: ForkStorm, CPUs: -1}},
		{"RAMBytes", Config{Scenario: Prefork, RAMBytes: 1}},
		{"RAMBytes", Config{Scenario: Pipeline, RAMBytes: 4095}},
	} {
		c.cfg.HeapBytes = 4 << 20
		srv := c.cfg
		srv.Scenario = ""
		for name, run := range map[string]func() error{
			"Run":              func() error { _, err := Run(c.cfg); return err },
			"Templates.Run":    func() error { _, err := NewTemplates().Run(c.cfg); return err },
			"Server":           func() error { _, err := (*Templates)(nil).Server(srv); return err },
			"Templates.Server": func() error { _, err := NewTemplates().Server(srv); return err },
		} {
			t.Run(fmt.Sprintf("%s/%s/%s", c.cfg.Scenario, c.field, name), func(t *testing.T) {
				var se *SpecError
				err := run()
				if !errors.As(err, &se) {
					t.Fatalf("got %v, want *SpecError", err)
				}
				if se.Spec != "load.Config" || se.Field != c.field || se.Reason == "" {
					t.Errorf("SpecError %+v, want load.Config field %s", se, c.field)
				}
			})
		}
	}
}
