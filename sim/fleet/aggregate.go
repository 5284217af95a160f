package fleet

import (
	"fmt"
	"math"
	"math/big"
	"sync"
)

// exactSum is an exact, order-independent float64 accumulator: every
// added value is decomposed into its integer significand and binary
// exponent and accumulated in a big.Int scaled to 2^-1074 units (the
// smallest subnormal), so the running sum carries no rounding error at
// all and Float64 returns the correctly rounded total. Order
// independence is what lets the fleet's host workers fold machine
// rates in completion order and still emit the byte-identical
// aggregate a serial machine-id-order fold produces — plain float
// addition is not associative, and a reordered sum would drift in the
// last ulp.
type exactSum struct {
	acc big.Int
}

// Add folds v into the sum, exactly. v must be finite (fleet rates
// are ratios of bounded integers).
func (s *exactSum) Add(v float64) {
	if v == 0 {
		return
	}
	bits := math.Float64bits(v)
	mant := bits & (1<<52 - 1)
	exp := int((bits >> 52) & 0x7ff)
	if exp == 0x7ff {
		panic(fmt.Sprintf("fleet: exactSum.Add(%v): non-finite", v))
	}
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	// v = mant * 2^(exp-1075); in 2^-1074 units that is mant << (exp-1).
	var t big.Int
	t.SetUint64(mant)
	t.Lsh(&t, uint(exp-1))
	if bits>>63 != 0 {
		s.acc.Sub(&s.acc, &t)
	} else {
		s.acc.Add(&s.acc, &t)
	}
}

// Float64 is the correctly rounded total.
func (s *exactSum) Float64() float64 {
	if s.acc.Sign() == 0 {
		return 0
	}
	prec := uint(s.acc.BitLen())
	if prec < 64 {
		prec = 64
	}
	f := new(big.Float).SetPrec(prec).SetInt(&s.acc)
	f.SetMantExp(f, -1074) // scale back from 2^-1074 units
	v, _ := f.Float64()
	return v
}

// machineRollup is one machine as a one-machine fleet: its phases
// summed, its restart and migration outage added to its virtual time,
// its peak RSS the worst phase's. The fleet fold, the machine's own
// rate, and the per-machine report row all read it.
func machineRollup(mm *MachineMetrics) Aggregate {
	r := Aggregate{Machines: 1}
	for _, p := range mm.Phases {
		r.TotalRequests += p.Requests
		r.TotalCreations += p.Creations
		r.FailedRequests += p.FailedRequests
		r.OOMKills += p.OOMKills
		r.TotalVirtualNanos += p.VirtualNanos
		r.FleetPeakRSSBytes = max(r.FleetPeakRSSBytes, p.PeakRSSBytes)
		r.Counters.Add(p.Counters)
	}
	r.TotalVirtualNanos += mm.RestartNanos + mm.MigrateNanos
	r.MaxVirtualNanos = r.TotalVirtualNanos
	r.PTECopies += mm.RestartPTECopies
	r.RestartNanos, r.MaxRestartNanos = mm.RestartNanos, mm.RestartNanos
	r.MigrateDowntimeNanos, r.MaxMigrateNanos = mm.MigrateNanos, mm.MigrateNanos
	r.MigratePagesSent = mm.MigratePagesSent
	r.MigrateRefusals = mm.MigrateRefused
	return r
}

// add folds b into a: every sum and max rule of the fleet rollup. The
// rate is not among them — it travels in an exactSum beside the
// Aggregate, so any fold order rounds identically.
func (a *Aggregate) add(b *Aggregate) {
	a.Machines += b.Machines
	a.TotalRequests += b.TotalRequests
	a.TotalCreations += b.TotalCreations
	a.FailedRequests += b.FailedRequests
	a.OOMKills += b.OOMKills
	a.MaxVirtualNanos = max(a.MaxVirtualNanos, b.MaxVirtualNanos)
	a.TotalVirtualNanos += b.TotalVirtualNanos
	a.FleetPeakRSSBytes += b.FleetPeakRSSBytes
	a.Counters.Add(b.Counters)
	a.RestartNanos += b.RestartNanos
	a.MaxRestartNanos = max(a.MaxRestartNanos, b.MaxRestartNanos)
	a.MigrateDowntimeNanos += b.MigrateDowntimeNanos
	a.MaxMigrateNanos = max(a.MaxMigrateNanos, b.MaxMigrateNanos)
	a.MigratePagesSent += b.MigratePagesSent
	a.MigrateRefusals += b.MigrateRefusals
}

// aggregator folds MachineMetrics into a running Aggregate — the
// streaming replacement for materializing every machine's metrics and
// merging at the end. All integer fields are sums or maxes and the one
// float rate is an exactSum, so the fold is order-independent: folding
// in completion order equals the serial machine-id-order fold bit for
// bit.
type aggregator struct {
	agg  Aggregate
	rate exactSum
}

// fold merges one machine's metrics in.
func (a *aggregator) fold(mm *MachineMetrics) {
	r := machineRollup(mm)
	a.agg.add(&r)
	a.rate.Add(mm.RequestsPerVSec)
}

// aggregate finalizes the rollup, rounding the exact rate sum once.
func (a *aggregator) aggregate() Aggregate {
	agg := a.agg
	agg.RequestsPerVSec = a.rate.Float64()
	return agg
}

// aggregate folds per-machine metrics serially — the in-memory
// reference the streaming tests compare against, and the primitive the
// hand-built-fleet tests exercise.
func aggregate(machines []MachineMetrics) Aggregate {
	var a aggregator
	for i := range machines {
		a.fold(&machines[i])
	}
	return a.aggregate()
}

// merger is the streaming merge point the fleet's host workers feed:
// each finished machine folds into the aggregator as it arrives — every
// fold rule is a sum or a max and the rate an exactSum, so arrival
// order cannot change the result — and, when Spec.KeepPerMachine asks
// for the breakdown, lands in its id's slot of a preallocated slice.
type merger struct {
	mu   sync.Mutex
	agg  aggregator
	keep []MachineMetrics
}

// newMerger merges ids [0, n), keeping per-machine metrics when keep
// is set.
func newMerger(n int, keep bool) *merger {
	m := &merger{}
	if keep {
		m.keep = make([]MachineMetrics, n)
	}
	return m
}

// add submits machine id's finished metrics; safe for concurrent use.
func (m *merger) add(id int, mm *MachineMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.agg.fold(mm)
	if m.keep != nil {
		m.keep[id] = *mm
	}
}
