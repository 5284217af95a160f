package fleet

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/sim"
	"repro/sim/load"
)

// TestExactSumOrderIndependent: the exact accumulator's whole reason to
// exist. Plain float64 addition is not associative — folding these
// values from a different starting point drifts, in the last ulp or
// worse — but the exact sum must produce one correctly rounded total in
// any order, because the fleet's host workers fold machine rates in
// completion order.
func TestExactSumOrderIndependent(t *testing.T) {
	values := []float64{
		1e16, 1, -1e16, 0.1, 1e-30, 2.5e8, -0.1, 3.141592653589793,
		1e300, -1e300, 4.9e-324, 1e-12, 7.25, 1e9 / 3,
	}
	var serial exactSum
	for _, v := range values {
		serial.Add(v)
	}
	for r := 1; r < len(values); r++ {
		var rotated exactSum
		for i := range values {
			rotated.Add(values[(r+i)%len(values)])
		}
		if got, want := rotated.Float64(), serial.Float64(); got != want {
			t.Errorf("rotation %d: sum %v != serial sum %v", r, got, want)
		}
	}
	// And the rounding is exact, not merely consistent: 1e16 + 1 - 1e16
	// is 0 in float64 folds (1e16+1 rounds back to 1e16) but the true
	// sum of the first three values is exactly 1.
	var s exactSum
	s.Add(1e16)
	s.Add(1)
	s.Add(-1e16)
	if got := s.Float64(); got != 1 {
		t.Errorf("exact sum of {1e16, 1, -1e16} = %v, want 1", got)
	}
	big, one := 1e16, 1.0 // variables: constant folding would sum exactly
	if naive := big + one - big; naive == 1 {
		t.Errorf("float64 fold gave %v; the test's premise is wrong", naive)
	}
}

// TestStreamingMatchesLegacyAggregate runs every fleet scenario with
// the per-machine breakdown retained — at GOMAXPROCS 1 and 8 — and
// checks that the streaming fold's Aggregate equals the legacy
// in-memory merge of the retained metrics, that the full JSON is
// byte-identical across the parallelism levels, and that dropping the
// breakdown (the default streaming path) changes nothing about the
// Aggregate.
func TestStreamingMatchesLegacyAggregate(t *testing.T) {
	specs := []Spec{
		{Machines: 6, Scenario: Uniform, Via: sim.ForkExec, Requests: 4, HeapBytes: 4 << 20},
		{Machines: 4, Scenario: RollingRestart, Via: sim.Spawn, Requests: 3, HeapBytes: 4 << 20},
		{Machines: 5, Scenario: Heterogeneous, Via: sim.ForkExec, Requests: 2, HeapBytes: 4 << 20},
		{Machines: 4, Scenario: Surge, Via: sim.Spawn, Requests: 3, HeapBytes: 4 << 20, SurgeFactor: 2},
		{Machines: 4, Scenario: Chaos, Via: sim.ForkExec, Requests: 6, HeapBytes: 4 << 20, FaultSeed: 3},
		// The migrate sums and maxes, and a vfork machine's restart
		// fallback beside them.
		{Machines: 4, Scenario: Rebalance, Via: sim.ForkExec, Requests: 3, HeapBytes: 4 << 20},
		{Machines: 2, Scenario: Rebalance, Via: sim.VforkExec, Requests: 2, HeapBytes: 4 << 20},
		{Machines: 4, Scenario: Uniform, Load: load.NetLB, Via: sim.ForkExec, Requests: 8, HeapBytes: 4 << 20},
	}
	runAt := func(t *testing.T, spec Spec, gomaxprocs int) *Result {
		t.Helper()
		prev := runtime.GOMAXPROCS(gomaxprocs)
		defer runtime.GOMAXPROCS(prev)
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, spec := range specs {
		spec := spec
		name := string(spec.Scenario)
		if spec.Load != "" {
			name += "-" + string(spec.Load)
		}
		if spec.Via == sim.VforkExec {
			name += "-vfork"
		}
		t.Run(name, func(t *testing.T) {
			kept := spec
			kept.KeepPerMachine = true
			var prevJSON []byte
			for _, procs := range []int{1, 8} {
				res := runAt(t, kept, procs)
				if len(res.Machines) != spec.Machines {
					t.Fatalf("kept %d machines, want %d", len(res.Machines), spec.Machines)
				}
				for i, mm := range res.Machines {
					if mm.Machine != i {
						t.Fatalf("machine %d reported id %d: breakdown out of id order", i, mm.Machine)
					}
				}
				if legacy := aggregate(res.Machines); res.Aggregate != legacy {
					t.Errorf("GOMAXPROCS=%d: streaming aggregate differs from legacy merge:\nstream: %+v\nlegacy: %+v",
						procs, res.Aggregate, legacy)
				}
				data, err := res.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if prevJSON != nil && !bytes.Equal(prevJSON, data) {
					t.Errorf("kept-breakdown report differs across GOMAXPROCS:\n1:\n%s\n%d:\n%s",
						prevJSON, procs, data)
				}
				prevJSON = data
				// The default (dropping) path must aggregate
				// identically at the same parallelism.
				dropped := runAt(t, spec, procs)
				if len(dropped.Machines) != 0 {
					t.Errorf("default run kept %d per-machine metrics", len(dropped.Machines))
				}
				if dropped.Aggregate != res.Aggregate {
					t.Errorf("GOMAXPROCS=%d: aggregate changed when the breakdown was dropped:\ndrop: %+v\nkeep: %+v",
						procs, dropped.Aggregate, res.Aggregate)
				}
			}
		})
	}
}

// TestMergerBuffersOutOfOrder feeds a merger its machines in the worst
// order (backwards) and checks the aggregate equals the in-order fold
// and the kept breakdown lands in id order.
func TestMergerBuffersOutOfOrder(t *testing.T) {
	const n = 9
	machines := make([]MachineMetrics, n)
	for i := range machines {
		machines[i] = MachineMetrics{
			Machine:         i,
			RequestsPerVSec: 1 / float64(i+1), // rounding-sensitive rates
		}
	}
	m := newMerger(n, true)
	for i := n - 1; i >= 0; i-- {
		m.add(i, &machines[i])
	}
	if got, want := m.agg.aggregate(), aggregate(machines); got != want {
		t.Errorf("out-of-order merge %+v != in-order merge %+v", got, want)
	}
	for i, mm := range m.keep {
		if mm.Machine != i {
			t.Fatalf("kept metrics out of order at %d: machine %d", i, mm.Machine)
		}
	}
}

// TestFleetMachineCap documents the raised fleet ceiling: the streaming
// path made 1<<20 machines representable, and the validator draws the
// line there.
func TestFleetMachineCap(t *testing.T) {
	if err := (Spec{Machines: 1 << 20, Requests: 1, HeapBytes: 1 << 20}).Validate(); err != nil {
		t.Errorf("1<<20 machines should validate: %v", err)
	}
	err := (Spec{Machines: 1<<20 + 1}).Validate()
	var se *load.SpecError
	if !errors.As(err, &se) || se.Field != "Machines" {
		t.Errorf("1<<20+1 machines: got %v, want load.SpecError on Machines", err)
	}
}
