// Package fault is the public surface of the simulator's deterministic
// fault-injection and tracing subsystem.
//
// "A fork() in the road" argues that fork's failure modes — overcommit
// discovered at fault time, partial-copy failures, snapshots of
// mid-flight multithreaded state — are as much a part of the API as
// its happy path. This package makes those failures a first-class,
// schedulable input: the kernel consults a named injection Point at
// every fallible boundary, and a Schedule — a pure function of
// (machine id, virtual time, op counter, magnitude) — decides which
// operations fail. The same schedule and seed replay bit-for-bit, at
// any simulated CPU count's timeline and any host parallelism, so a
// failure found once can be replayed, shrunk, and regression-tested
// forever.
//
// Install a schedule at boot with sim.WithFaults, on a running machine
// with System.SetFaultSchedule, per load run with load.Config.Faults,
// or fleet-wide with the fleet "chaos" scenario. Enable the structured
// event trace (syscall enter/exit, scheduling decisions, shootdown
// IPIs, injected faults, process lifecycle) with sim.WithTrace and
// read it back with System.Trace; `forkbench trace` renders it from
// the command line.
//
// Schedules:
//
//   - Observe: fail nothing, count everything — a clean run's counts
//     enumerate every operation a sweep can target.
//   - FailOp(point, seq, err): fail exactly the seq-th operation at
//     one point — the primitive behind exhaustive single-fault sweeps.
//   - PressureWave: periodic ENOMEM windows where an operation fails
//     if its magnitude beats a hashed threshold — big requests (fork's
//     Θ(parent) commit reservation) almost always fail, small ones
//     (spawn's few pages) almost never do.
//   - KillEvery / Random / Any: crash waves, seeded noise, and
//     combinators.
//   - Chaos(seed, machine): the fleet chaos mode's standard mix.
package fault

import (
	"repro/internal/cost"
	"repro/internal/errno"
	ifault "repro/internal/fault"
)

// Core types, aliased from the internal engine so values flow both
// ways without conversion.
type (
	// Point names one fallible boundary in the simulator.
	Point = ifault.Point
	// Op identifies one occurrence of an injection point.
	Op = ifault.Op
	// Schedule decides which operations fail (pure function of Op).
	Schedule = ifault.Schedule
	// Injector is a machine's engine: per-point op counters plus the
	// installed schedule (System.Faults exposes it).
	Injector = ifault.Injector
	// Recorder is a machine's structured event trace (System.Trace).
	Recorder = ifault.Recorder
	// Event is one trace record.
	Event = ifault.Event
	// PressureWave is the periodic magnitude-thresholded ENOMEM
	// schedule (see the package comment).
	PressureWave = ifault.PressureWave
	// ZoneOutage is the zone-scoped machine-kill schedule (see
	// KillZone).
	ZoneOutage = ifault.ZoneOutage
	// LinkDown severs one directed fabric link for a window.
	LinkDown = ifault.LinkDown
	// NetSplit partitions a set of machine addresses off the fabric
	// for a window (deliveries straddling the cut are dropped).
	NetSplit = ifault.NetSplit
	// ZonePartition is the cluster-level netsplit: balancer
	// reachability probes naming the zone fail during the window.
	ZonePartition = ifault.ZonePartition
	// Errno is the simulated kernel's error number type.
	Errno = errno.Errno
	// Ticks is virtual time (1 tick = 1 simulated nanosecond).
	Ticks = cost.Ticks
)

// Injection points.
const (
	PointFrameAlloc   = ifault.PointFrameAlloc
	PointCommit       = ifault.PointCommit
	PointPTClone      = ifault.PointPTClone
	PointCOWBreak     = ifault.PointCOWBreak
	PointFDClone      = ifault.PointFDClone
	PointExecImage    = ifault.PointExecImage
	PointThreadCreate = ifault.PointThreadCreate
	PointKill         = ifault.PointKill
	PointMachineKill  = ifault.PointMachineKill
	PointNetSend      = ifault.PointNetSend
	PointNetDeliver   = ifault.PointNetDeliver
	NumPoints         = ifault.NumPoints
)

// Errnos a schedule typically injects. OK is the no-fault decision a
// direct Schedule consumer (sim/cluster's kill check) compares against.
const (
	OK     = errno.OK
	ENOMEM = errno.ENOMEM
	EAGAIN = errno.EAGAIN
	EINTR  = errno.EINTR
	EIO    = errno.EIO
	EMFILE = errno.EMFILE
)

// Virtual-time units for wave periods.
const (
	Microsecond = cost.Microsecond
	Millisecond = cost.Millisecond
)

// Points lists every injection point in a fixed order.
func Points() []Point { return ifault.Points() }

// Observe returns the count-only schedule (nothing fails).
func Observe() Schedule { return ifault.Observe() }

// FailOp fails exactly the seq-th (1-based) operation at point.
func FailOp(point Point, seq uint64, err Errno) Schedule {
	return ifault.FailOp(point, seq, err)
}

// KillEvery crashes about one in n workload requests.
func KillEvery(seed uint64, machine int, n uint64) Schedule {
	return ifault.KillEvery(seed, machine, n)
}

// KillZone is the zone-outage schedule: every machine in the target
// availability zone dies while from <= t < until on the cluster's
// virtual clock (sim/cluster consults it once per live machine per
// reconcile step, with the machine's zone index as the op magnitude).
func KillZone(zone uint64, from, until Ticks) Schedule {
	return ifault.KillZone(zone, from, until)
}

// Random fails each targeted operation with probability perMille/1000,
// deterministically derived from the seed.
func Random(seed uint64, machine int, perMille uint64, err Errno, points ...Point) Schedule {
	return ifault.Random(seed, machine, perMille, err, points...)
}

// Any combines schedules; the first non-OK decision wins.
func Any(scheds ...Schedule) Schedule { return ifault.Any(scheds...) }

// Chaos is the fleet chaos mode's standard schedule for one machine:
// ENOMEM pressure waves plus a sparse kill wave.
func Chaos(seed uint64, machine int) Schedule { return ifault.Chaos(seed, machine) }

// NetChaos is the chaos-mode schedule for distributed (fabric-backed)
// loads: a deterministic pseudo-random fraction of frames dropped at
// send and at delivery.
func NetChaos(seed uint64, machine int) Schedule { return ifault.NetChaos(seed, machine) }

// NetMag packs a frame's (src, dst) machine addresses into the op
// magnitude word the network points carry.
func NetMag(src, dst int) uint64 { return ifault.NetMag(src, dst) }

// SyscallName renders a syscall number for trace consumers.
func SyscallName(num uint64) string { return ifault.SyscallName(num) }
