// Package cost provides the virtual time base for the simulator.
//
// Nothing in the simulated operating system reads the wall clock.
// Instead, every hardware-level operation (copying a page-table entry,
// zero-filling a frame, taking a trap) charges a fixed number of ticks
// to a Meter according to a Model. One tick is nominally one
// nanosecond, so results print naturally in microseconds, but the unit
// is only meaningful relative to the calibration in DefaultModel.
//
// Since the SMP refactor the Meter keeps one virtual clock per
// simulated CPU, all on a single shared timeline. Exactly one CPU is
// "active" at a time (the simulator is single-threaded by design);
// Charge advances the active CPU's clock only, so work performed on
// different CPUs overlaps in virtual time instead of serializing. The
// kernel's scheduler always executes the lowest-clock CPU next, which
// keeps the interleaving — and therefore every counter below —
// bit-for-bit reproducible.
package cost

import "fmt"

// Ticks is a span of virtual time. One tick is nominally 1 ns.
type Ticks uint64

// Common conversions.
const (
	Nanosecond  Ticks = 1
	Microsecond Ticks = 1000 * Nanosecond
	Millisecond Ticks = 1000 * Microsecond
	Second      Ticks = 1000 * Millisecond
)

// Micros reports t in (virtual) microseconds.
func (t Ticks) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t in (virtual) milliseconds.
func (t Ticks) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the duration with an adaptive unit.
func (t Ticks) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", t.Micros())
	default:
		return fmt.Sprintf("%dns", uint64(t))
	}
}

// MaxCPUs bounds NumCPUs: address-space residency is a uint64 bitmask.
const MaxCPUs = 64

// Model is the hardware cost model: how many ticks each primitive
// machine-level operation costs. The default values are calibrated so
// that the simulated process-creation latencies land in the same
// regime as the measurements reported in "A fork() in the road"
// (HotOS'19): a minimal fork+exec takes 34.3 µs from a parent with no
// dirty memory, posix_spawn takes 162.8 µs at every parent size,
// fork+exec grows linearly with the page-table entries it copies, by
// 64.3 µs per dirty MiB, and spawn overtakes fork+exec at a 2MiB
// parent. internal/experiments' TestCalibrationSentence measures these
// values and fails if this sentence stops stating them. See README
// "Regenerating the paper's evaluation" for the experiments.
type Model struct {
	// Trap and dispatch overheads.
	SyscallEntry  Ticks // user→kernel trap + dispatch
	SyscallExit   Ticks // return to user
	PageFault     Ticks // fault trap overhead, before servicing
	ContextSwitch Ticks

	// Address-translation hardware.
	TLBFlush Ticks // full flush on AS switch / fork
	// TLBShootIPI is charged once per *remote* CPU on which the
	// affected address space is resident, for every COW break,
	// unmap, and protection change — the §5 multicore fork tax. On
	// a 1-CPU machine it is never charged.
	TLBShootIPI Ticks

	// Physical memory operations (per 4 KiB frame unless noted).
	FrameAlloc Ticks // pull a frame off the free list
	FrameFree  Ticks
	PageZero   Ticks // zero-fill 4 KiB
	PageCopy   Ticks // copy 4 KiB (COW break, eager fork)
	HugeZero   Ticks // zero-fill 2 MiB
	HugeCopy   Ticks // copy 2 MiB

	// Page-table manipulation.
	PTEWrite    Ticks // install/copy one PTE (the fork inner loop)
	PTNodeAlloc Ticks // allocate + zero one page-table page
	PTNodeFree  Ticks
	PTWalk      Ticks // software walk on TLB miss

	// Kernel object management.
	ProcAlloc   Ticks // allocate task struct, pid, kernel stack
	ThreadAlloc Ticks
	VMAClone    Ticks // copy one VMA record
	FDClone     Ticks // duplicate one descriptor slot
	SigClone    Ticks // copy signal table

	// Executable loading.
	ImageHeader Ticks // parse + validate image header (exec/spawn)
	ImagePageIn Ticks // read one 4 KiB page from the image backing store

	// Spawn-path fixed overheads (the "shell out to the dynamic
	// linker and libc start-up" costs that make posix_spawn's
	// constant larger than a minimal fork's).
	SpawnSetup Ticks

	// Pipes and descriptors.
	PipeXferByte Ticks // per byte copied through a pipe
	InstrTick    Ticks // one VM instruction

	// Inter-machine network: wire-time prices, none charged to a CPU.
	// The sim/net fabric adds all three to a frame's arrival time:
	// NetStack once per frame for the network-stack traversal,
	// NetPerByte per payload byte serialized, and NetLinkLatency for
	// the one-way propagation delay.
	NetStack       Ticks // per-frame stack traversal (not CPU time)
	NetPerByte     Ticks // per payload byte serialized (not CPU time)
	NetLinkLatency Ticks // one-way propagation delay (not CPU time)
}

// DefaultModel returns the calibrated model (see Model for the
// calibration targets).
func DefaultModel() Model {
	return Model{
		SyscallEntry:  300 * Nanosecond,
		SyscallExit:   200 * Nanosecond,
		PageFault:     600 * Nanosecond,
		ContextSwitch: 1200 * Nanosecond,

		TLBFlush:    500 * Nanosecond,
		TLBShootIPI: 800 * Nanosecond,

		FrameAlloc: 80 * Nanosecond,
		FrameFree:  60 * Nanosecond,
		PageZero:   250 * Nanosecond,
		PageCopy:   350 * Nanosecond,
		HugeZero:   60 * Microsecond,
		HugeCopy:   90 * Microsecond,

		PTEWrite:    250 * Nanosecond,
		PTNodeAlloc: 400 * Nanosecond,
		PTNodeFree:  150 * Nanosecond,
		PTWalk:      200 * Nanosecond,

		ProcAlloc:   18 * Microsecond,
		ThreadAlloc: 4 * Microsecond,
		VMAClone:    300 * Nanosecond,
		FDClone:     120 * Nanosecond,
		SigClone:    500 * Nanosecond,

		ImageHeader: 6 * Microsecond,
		ImagePageIn: 700 * Nanosecond,

		SpawnSetup: 130 * Microsecond,

		PipeXferByte: 1 * Nanosecond,
		InstrTick:    1 * Nanosecond,

		NetStack:       2 * Microsecond,
		NetPerByte:     1 * Nanosecond,
		NetLinkLatency: 10 * Microsecond,
	}
}

// Counters are the reported event counters: the one declaration every
// report reads them from — the meter, sim.Stats, sim/load's Metrics,
// the fleet rollup and the forkbench diff gate. PageCopies is the
// COW-fault tax (plus eager-fork copies where selected), and
// TLBShootdowns the remote-CPU IPIs, one per remote CPU per event: the
// SMP fork tax, always 0 on one CPU. Every field is a sum, and Add is
// the one place that says so.
type Counters struct {
	PageFaults      uint64 `json:"page_faults"`
	PageCopies      uint64 `json:"page_copies"`
	PageZeroes      uint64 `json:"page_zeroes"`
	PTECopies       uint64 `json:"pte_copies"`
	TLBShootdowns   uint64 `json:"tlb_shootdowns"`
	ContextSwitches uint64 `json:"context_switches"`
	Syscalls        uint64 `json:"syscalls"`
	Instructions    uint64 `json:"instructions"`
}

// Add folds o into c.
func (c *Counters) Add(o Counters) {
	c.PageFaults += o.PageFaults
	c.PageCopies += o.PageCopies
	c.PageZeroes += o.PageZeroes
	c.PTECopies += o.PTECopies
	c.TLBShootdowns += o.TLBShootdowns
	c.ContextSwitches += o.ContextSwitches
	c.Syscalls += o.Syscalls
	c.Instructions += o.Instructions
}

// Meter couples the per-CPU clocks with a model and accumulates the
// Counters so experiments can report *why* an operation cost what it
// did (e.g. PTEs copied during a fork). It is not safe for concurrent
// use; the simulator is single-threaded by design.
type Meter struct {
	Model Model

	clocks []Ticks // per-CPU virtual time, one shared timeline
	idle   []Ticks // of clocks[i], how much was idle fast-forward
	active int     // CPU whose clock Charge advances

	Counters
	// PTNodes counts page-table nodes allocated; no report prints it.
	PTNodes uint64

	// OnShootdown, when non-nil, observes every shootdown round (the
	// kernel's trace recorder hooks in here; the meter itself cannot
	// import the trace package without a cycle).
	OnShootdown func(remotes int)
}

// NewMeter returns a single-CPU meter using the given model.
func NewMeter(m Model) *Meter { return NewMeterSMP(m, 1) }

// NewMeterSMP returns a meter with ncpus per-CPU clocks, all starting
// at zero. ncpus is clamped to [1, MaxCPUs] (callers validate earlier
// for a real error).
func NewMeterSMP(m Model, ncpus int) *Meter {
	if ncpus < 1 {
		ncpus = 1
	}
	if ncpus > MaxCPUs {
		ncpus = MaxCPUs
	}
	return &Meter{
		Model:  m,
		clocks: make([]Ticks, ncpus),
		idle:   make([]Ticks, ncpus),
	}
}

// NumCPUs reports how many per-CPU clocks the meter keeps.
func (mt *Meter) NumCPUs() int { return len(mt.clocks) }

// ActiveCPU reports the CPU whose clock Charge currently advances.
func (mt *Meter) ActiveCPU() int { return mt.active }

// SetActiveCPU switches charging to CPU i (the scheduler calls this at
// every dispatch).
func (mt *Meter) SetActiveCPU(i int) {
	if i < 0 || i >= len(mt.clocks) {
		panic(fmt.Sprintf("cost: active CPU %d out of range [0,%d)", i, len(mt.clocks)))
	}
	mt.active = i
}

// Charge advances the active CPU's clock by d.
func (mt *Meter) Charge(d Ticks) { mt.clocks[mt.active] += d }

// Now returns the active CPU's current virtual time.
func (mt *Meter) Now() Ticks { return mt.clocks[mt.active] }

// CPUClock returns CPU i's virtual time.
func (mt *Meter) CPUClock(i int) Ticks { return mt.clocks[i] }

// CPUBusy returns how much of CPU i's virtual time was spent charging
// work (its clock minus idle fast-forwards) — the numerator of a
// utilization figure.
func (mt *Meter) CPUBusy(i int) Ticks { return mt.clocks[i] - mt.idle[i] }

// MaxClock returns the furthest-ahead CPU clock: the machine-wide
// elapsed virtual time.
func (mt *Meter) MaxClock() Ticks {
	max := mt.clocks[0]
	for _, c := range mt.clocks[1:] {
		if c > max {
			max = c
		}
	}
	return max
}

// IdleTo fast-forwards CPU i to the absolute time deadline, recording
// the gap as idle rather than busy. A deadline in i's past is a no-op.
func (mt *Meter) IdleTo(i int, deadline Ticks) {
	if deadline > mt.clocks[i] {
		mt.idle[i] += deadline - mt.clocks[i]
		mt.clocks[i] = deadline
	}
}

// ChargeShootdown charges one TLB-shootdown IPI per remote CPU and
// counts them. remotes <= 0 is a no-op (1-CPU machines, or a space
// resident nowhere else).
func (mt *Meter) ChargeShootdown(remotes int) {
	if remotes <= 0 {
		return
	}
	mt.Charge(Ticks(remotes) * mt.Model.TLBShootIPI)
	mt.TLBShootdowns += uint64(remotes)
	if mt.OnShootdown != nil {
		mt.OnShootdown(remotes)
	}
}

// ResetCounters zeroes the event counters (not the clocks).
func (mt *Meter) ResetCounters() { mt.Counters, mt.PTNodes = Counters{}, 0 }
