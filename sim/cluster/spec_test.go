package cluster

import (
	"errors"
	"testing"

	"repro/sim"
	"repro/sim/load"
)

// TestSpecValidate drives cluster.Spec validation through every typed
// failure: each bad spec must yield a *load.SpecError naming the
// cluster spec and the offending field.
func TestSpecValidate(t *testing.T) {
	pool := func(mutate func(*PoolSpec)) []PoolSpec {
		p := PoolSpec{Name: "web", Via: sim.Spawn, CPUs: 2, HeapBytes: 1 << 20}
		if mutate != nil {
			mutate(&p)
		}
		return []PoolSpec{p}
	}
	cases := []struct {
		name  string
		spec  Spec
		field string // "" means valid
	}{
		{"zero pool list", Spec{}, "Pools"},
		{"minimal valid", Spec{Pools: pool(nil)}, ""},
		{"negative request work", Spec{Pools: pool(nil), RequestWorkMiB: -1}, "RequestWorkMiB"},
		{"empty traffic phase", Spec{Pools: pool(nil), Traffic: []Phase{{Steps: 0, PerStep: 1}}}, "Traffic[0].Steps"},
		{"negative per-step", Spec{Pools: pool(nil), Traffic: []Phase{{Steps: 1, PerStep: -1}}}, "Traffic[0].PerStep"},
		{"unnamed pool", Spec{Pools: pool(func(p *PoolSpec) { p.Name = "" })}, "Pools[0].Name"},
		{"duplicate pool name", Spec{Pools: append(pool(nil), pool(nil)...)}, "Pools[web].Name"},
		{"unknown strategy", Spec{Pools: pool(func(p *PoolSpec) { p.Via = sim.Strategy(99) })}, "Pools[web].Via"},
		{"negative cpus", Spec{Pools: pool(func(p *PoolSpec) { p.CPUs = -2 })}, "Pools[web].CPUs"},
		{"too many cpus", Spec{Pools: pool(func(p *PoolSpec) { p.CPUs = 65 })}, "Pools[web].CPUs"},
		{"negative workers", Spec{Pools: pool(func(p *PoolSpec) { p.Workers = -1 })}, "Pools[web].Workers"},
		{"zero min machines", Spec{Pools: pool(func(p *PoolSpec) { p.MinMachines = -3 })}, "Pools[web].MinMachines"},
		{"min above max", Spec{Pools: pool(func(p *PoolSpec) { p.MinMachines = 5; p.MaxMachines = 2 })}, "Pools[web].MinMachines"},
		{"machine cap", Spec{Pools: pool(func(p *PoolSpec) { p.MaxMachines = 65 })}, "Pools[web].MaxMachines"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			var se *load.SpecError
			if !errors.As(err, &se) {
				t.Fatalf("Validate() = %v, want *load.SpecError", err)
			}
			if se.Spec != "cluster.Spec" {
				t.Errorf("Spec = %q, want cluster.Spec", se.Spec)
			}
			if se.Field != tc.field {
				t.Errorf("Field = %q, want %q (err: %v)", se.Field, tc.field, err)
			}
		})
	}
}

// TestRunRejectsInvalidSpec: Run validates before touching any
// machine and surfaces the same typed error.
func TestRunRejectsInvalidSpec(t *testing.T) {
	_, err := Run(Spec{})
	var se *load.SpecError
	if !errors.As(err, &se) || se.Field != "Pools" {
		t.Fatalf("Run(zero spec) = %v, want SpecError on Pools", err)
	}
}

// TestWithDefaults pins the derived values the scenarios rely on, and
// the fixed policy a run's report echoes: 3 zones, a 70% target and an
// SLO of three steps.
func TestWithDefaults(t *testing.T) {
	s := Spec{Pools: []PoolSpec{{Name: "p", Via: sim.ForkExec}}}.withDefaults()
	if s.ReconcileEveryNanos != 2_000_000 {
		t.Errorf("cluster default step %d, want 2ms", s.ReconcileEveryNanos)
	}
	p := s.Pools[0]
	if p.CPUs != 2 || p.HeapBytes != 64<<20 || p.MinMachines != 1 || p.MaxMachines != 4 {
		t.Errorf("pool defaults wrong: %+v", p)
	}
	if len(s.Traffic) == 0 || s.MaxSteps == 0 {
		t.Errorf("traffic/max-steps defaults missing: %+v", s)
	}
	rep, err := Run(Spec{
		Pools:          []PoolSpec{{Name: "p", Via: sim.Spawn, CPUs: 1, HeapBytes: 1 << 20, Workers: 1}},
		RequestWorkMiB: 1,
		Traffic:        []Phase{{Steps: 2, PerStep: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Zones != 3 || rep.TargetUtilization != 0.70 || rep.SLONanos != 3*rep.ReconcileEveryNanos {
		t.Errorf("report echoes zones=%d target=%v SLO=%dns at a %dns step; want 3, 0.7 and three steps",
			rep.Zones, rep.TargetUtilization, rep.SLONanos, rep.ReconcileEveryNanos)
	}
}
