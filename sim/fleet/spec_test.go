package fleet

import (
	"errors"
	"testing"

	"repro/sim"
	"repro/sim/load"
)

// TestSpecValidate is the table over fleet.Spec validation: every
// rejection is a *load.SpecError naming the offending field, defaults
// keep the zero Spec valid, and in-range values pass.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name      string
		spec      Spec
		wantField string // "" = valid
	}{
		{"zero spec defaults valid", Spec{}, ""},
		{"full valid", Spec{Machines: 8, Scenario: Surge, Load: load.BuildFarm, CPUs: 4, Requests: 10, Workers: 3, SurgeFactor: 2}, ""},
		{"negative machines", Spec{Machines: -1}, "Machines"},
		{"too many machines", Spec{Machines: 1<<20 + 1}, "Machines"},
		{"negative cpus", Spec{CPUs: -2}, "CPUs"},
		{"too many cpus", Spec{CPUs: 65}, "CPUs"},
		{"negative requests", Spec{Requests: -1}, "Requests"},
		{"negative workers", Spec{Workers: -1}, "Workers"},
		{"negative surge factor", Spec{SurgeFactor: -1}, "SurgeFactor"},
		{"negative strategy", Spec{Via: -1}, "Via"},
		{"strategy past eager", Spec{Via: sim.EagerForkExec + 1}, "Via"},
		{"unknown load", Spec{Load: "webscale"}, "Load"},
		{"unknown scenario", Spec{Scenario: "cloudburst"}, "Scenario"},
		{"chaos needs prefork", Spec{Scenario: Chaos, Load: load.Pipeline}, "Load"},
		// A migration is the rebalance wave's own cell, never a
		// per-machine load: the fleet would drop its counters.
		{"uniform migrate", Spec{Scenario: Uniform, Load: load.Migrate}, "Load"},
		{"surge migrate", Spec{Scenario: Surge, Load: load.Migrate}, "Load"},
		{"rolling migrate", Spec{Scenario: RollingRestart, Load: load.Migrate}, "Load"},
		{"rebalance migrate", Spec{Scenario: Rebalance, Load: load.Migrate}, "Load"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if c.wantField == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want ok", err)
				}
				return
			}
			var se *load.SpecError
			if !errors.As(err, &se) {
				t.Fatalf("Validate() = %v (%T), want *load.SpecError", err, err)
			}
			if se.Field != c.wantField {
				t.Errorf("SpecError.Field = %q, want %q (err: %v)", se.Field, c.wantField, se)
			}
			if se.Spec != "fleet.Spec" || se.Reason == "" {
				t.Errorf("SpecError incomplete: %+v", se)
			}
		})
	}
}

// TestSpecErrorMessage pins the rendered form branching-averse callers
// (the CLI) print.
func TestSpecErrorMessage(t *testing.T) {
	e := &load.SpecError{Spec: "fleet.Spec", Field: "Machines", Reason: "-1 machines (want 1..4096)"}
	want := "fleet.Spec: invalid Machines: -1 machines (want 1..4096)"
	if e.Error() != want {
		t.Errorf("Error() = %q, want %q", e.Error(), want)
	}
}

// TestRunRejectsInvalidSpec: Run surfaces the typed error.
func TestRunRejectsInvalidSpec(t *testing.T) {
	_, err := Run(Spec{Machines: -3})
	var se *load.SpecError
	if !errors.As(err, &se) || se.Field != "Machines" {
		t.Fatalf("Run(-3 machines) = %v, want *load.SpecError{Field: Machines}", err)
	}
}

// TestResultHeapIsMapped: the report names the heap its machines
// mapped, not the one requested. A 5000-byte heap maps two pages, and
// the top-level figure must agree with every machine's phases.
func TestResultHeapIsMapped(t *testing.T) {
	res, err := Run(Spec{Machines: 2, Scenario: Uniform, Via: sim.Spawn,
		Requests: 2, HeapBytes: 5000, KeepPerMachine: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.HeapBytes != 2*4096 {
		t.Errorf("report heap %d bytes, want the two pages its machines map", res.HeapBytes)
	}
	for _, mm := range res.Machines {
		for _, ph := range mm.Phases {
			if ph.HeapBytes != res.HeapBytes {
				t.Errorf("machine %d mapped %d heap bytes, the report says %d", mm.Machine, ph.HeapBytes, res.HeapBytes)
			}
		}
	}
}
