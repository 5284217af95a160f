// Package fault makes failure a first-class, deterministic input of
// the simulator: a schedulable fault-injection engine plus a compact
// structured event trace.
//
// The kernel, physical memory, and address-space layers consult named
// injection Points at every fallible boundary (frame allocation,
// commit reservation, page-table clone, COW break, descriptor-table
// copy, exec image load, thread creation). Whether an operation fails
// is decided by a Schedule — a pure function of the operation's
// identity (point, per-point sequence number, virtual time, magnitude)
// — so the same schedule yields byte-identical outcomes on every run,
// at any simulated CPU count's own timeline, and at any host
// parallelism. There is no randomness at injection time: "random"
// schedules hash their inputs with a fixed mixing function.
//
// The package is internal substrate; the public surface is repro/
// sim/fault, wired through sim.WithFaults, load.Config.Faults, and
// fleet chaos scenarios.
package fault

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/errno"
)

// Point names one fallible boundary in the simulator. Injection points
// are consulted even when no fault fires, so a clean run's per-point
// operation counts enumerate every place a fault *could* have been
// injected — the property the schedule-sweeping tests exploit.
type Point uint8

// Injection points.
const (
	// PointFrameAlloc is a physical 4 KiB or 2 MiB frame allocation
	// (demand faults, COW copies, eager fork). Magnitude: pages.
	PointFrameAlloc Point = iota
	// PointCommit is a commit (overcommit accounting) reservation —
	// where strict accounting says no, and where fork's Θ(parent)
	// reservation is at risk. Magnitude: pages requested.
	PointCommit
	// PointPTClone is a whole-page-table clone: the entry into fork's
	// CloneCOW/CloneEager walk. Magnitude: mapped entries.
	PointPTClone
	// PointCOWBreak is a copy-on-write break servicing a write fault
	// on a shared page. Magnitude: pages (512 for a huge page).
	PointCOWBreak
	// PointFDClone is a descriptor-table copy (fork, posix_spawn
	// inheritance). Magnitude: open descriptors.
	PointFDClone
	// PointExecImage is executable-image resolution and header
	// validation (exec, spawn, builder LoadImage). Magnitude: 1.
	PointExecImage
	// PointThreadCreate is thread creation on the fork, spawn, and
	// thread_create paths. Magnitude: 1.
	PointThreadCreate
	// PointKill is a workload-level crash decision consulted by the
	// fault-tolerant load drivers once per completed request: a
	// non-OK decision kills the in-flight worker (the chaos "kill
	// wave"). Magnitude: 1.
	PointKill
	// PointMachineKill is a cluster-level machine-loss decision,
	// consulted by the sim/cluster reconcile loop once per live
	// machine per reconcile step (in machine-id order, on the
	// cluster's virtual clock): a non-OK decision kills the whole
	// machine, losing its queued requests. Magnitude: the machine's
	// zone index, which is what lets a schedule take out exactly one
	// availability zone. Magnitude-scoped, not kernel-wired: the
	// orchestrator constructs these ops itself.
	PointMachineKill
	// PointNetSend is one frame entering the inter-machine fabric at
	// its source: a non-OK decision drops the frame before it is ever
	// queued (a lossy or severed uplink). Magnitude: NetMag(src, dst)
	// — the frame's endpoints packed into one word.
	PointNetSend
	// PointNetDeliver is one frame leaving the fabric at its
	// destination: a non-OK decision drops it at the last hop (a
	// cut link or a network partition). Consulted by sim/net per
	// delivery with Mag = NetMag(src, dst), and by the sim/cluster
	// balancer as a zone-reachability probe with Mag = the target
	// machine's zone index (the ZonePartition convention, mirroring
	// PointMachineKill).
	PointNetDeliver

	// NumPoints bounds the Point space (array sizing).
	NumPoints
)

var pointNames = [NumPoints]string{
	"frame.alloc",
	"commit.reserve",
	"pagetable.clone",
	"cow.break",
	"fdtable.clone",
	"exec.image",
	"thread.create",
	"request.kill",
	"machine.kill",
	"net.send",
	"net.deliver",
}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", int(p))
}

// Points lists every injection point in a fixed order.
func Points() []Point {
	out := make([]Point, NumPoints)
	for i := range out {
		out[i] = Point(i)
	}
	return out
}

// Op identifies one occurrence of an injection point — everything a
// Schedule may condition on. It is a pure function of the simulation
// state: no host time, no host memory, no randomness.
type Op struct {
	// Point is the boundary being crossed.
	Point Point
	// Seq is the 1-based count of operations at this point since the
	// machine booted (the "op counter").
	Seq uint64
	// Time is the active CPU's virtual time at the operation.
	Time cost.Ticks
	// Mag is the operation's magnitude in point-specific units
	// (pages reserved, page-table entries cloned, descriptors
	// copied). Pressure-style schedules use it to make big requests
	// fail before small ones — the overcommit argument in schedule
	// form.
	Mag uint64
}

// Schedule decides which operations fail. Decide must be a pure
// function of op (plus the schedule's own immutable configuration):
// given the same op it must always return the same errno. OK means
// "proceed".
type Schedule interface {
	Decide(op Op) errno.Errno
}

// splitmix64 is the fixed mixing function behind every "random"
// schedule: deterministic, seedable, and good enough to decorrelate
// (seed, machine, point, seq) tuples.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(vs ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, v := range vs {
		h = splitmix64(h ^ v)
	}
	return h
}

// observe is the schedule that never fails anything. Installing it
// still counts operations, which is how a clean run enumerates the
// injection points a later sweep can target.
type observe struct{}

func (observe) Decide(Op) errno.Errno { return errno.OK }

// Observe returns the count-only schedule: every operation proceeds,
// every operation is counted.
func Observe() Schedule { return observe{} }

// failOp fails exactly one operation: the seq-th occurrence of point.
type failOp struct {
	point Point
	seq   uint64
	err   errno.Errno
}

func (f failOp) Decide(op Op) errno.Errno {
	if op.Point == f.point && op.Seq == f.seq {
		return f.err
	}
	return errno.OK
}

// FailOp returns the single-fault schedule: the seq-th (1-based)
// operation at point fails with err; everything else proceeds. This is
// the primitive the exhaustive fault sweeps are built from.
func FailOp(point Point, seq uint64, err errno.Errno) Schedule {
	return failOp{point: point, seq: seq, err: err}
}

// PressureWave is a periodic memory-pressure window: during the first
// Duty ticks of every Period, operations at the targeted points fail
// if their magnitude reaches a hashed threshold in [1, Scale]. Large
// requests (fork's Θ(parent) commit reservation) almost always exceed
// the threshold and fail; small ones (spawn's few-page mappings)
// almost always squeeze through — the paper's overcommit asymmetry as
// a schedulable input. The wave's phase is derived from (Seed,
// Machine), so a fleet's machines do not fail in lockstep while each
// machine remains perfectly reproducible.
type PressureWave struct {
	Seed    uint64
	Machine int
	Period  cost.Ticks // window cadence (must be > 0)
	Duty    cost.Ticks // failing prefix of each period
	Scale   uint64     // threshold range; smaller = harsher (0 = 1)
	Err     errno.Errno
	Points  []Point
}

// Decide implements Schedule.
func (w PressureWave) Decide(op Op) errno.Errno {
	if w.Period <= 0 {
		return errno.OK
	}
	targeted := false
	for _, p := range w.Points {
		if p == op.Point {
			targeted = true
			break
		}
	}
	if !targeted {
		return errno.OK
	}
	phase := cost.Ticks(mix(w.Seed, uint64(w.Machine), 0x77a5e) % uint64(w.Period))
	if (op.Time+phase)%w.Period >= w.Duty {
		return errno.OK
	}
	scale := w.Scale
	if scale == 0 {
		scale = 1
	}
	threshold := 1 + mix(w.Seed, uint64(w.Machine), uint64(op.Point), op.Seq)%scale
	if op.Mag >= threshold {
		return w.Err
	}
	return errno.OK
}

// killEvery fails roughly one in every n PointKill decisions,
// deterministically hashed from (seed, machine, seq).
type killEvery struct {
	seed    uint64
	machine int
	n       uint64
}

func (k killEvery) Decide(op Op) errno.Errno {
	if op.Point != PointKill || k.n == 0 {
		return errno.OK
	}
	if mix(k.seed, uint64(k.machine), 0x6b111, op.Seq)%k.n == 0 {
		return errno.EINTR
	}
	return errno.OK
}

// KillEvery returns a crash-wave schedule: about one in n request-kill
// decisions fires (deterministically), modelling workers dying
// mid-traffic.
func KillEvery(seed uint64, machine int, n uint64) Schedule {
	return killEvery{seed: seed, machine: machine, n: n}
}

// ZoneOutage is the datacenter failure domain as a schedule: every
// machine-kill decision whose magnitude names the target zone fails
// during [From, Until). The sim/cluster orchestrator consults it once
// per live machine per reconcile step (op magnitude = zone index), so
// installing one takes out an entire availability zone mid-run while
// machines in other zones keep serving — and, like every schedule, it
// is a pure function of the op, so the outage replays bit-for-bit.
//
// Placement probes use the same function: a zone whose machines would
// die right now is no place to schedule a replacement, so the
// orchestrator backfills in surviving zones by construction.
type ZoneOutage struct {
	Zone        uint64     // target zone index (Op.Mag)
	From, Until cost.Ticks // outage window: kills fire in [From, Until)
}

// Decide implements Schedule.
func (z ZoneOutage) Decide(op Op) errno.Errno {
	if op.Point == PointMachineKill && op.Mag == z.Zone && op.Time >= z.From && op.Time < z.Until {
		return errno.EIO
	}
	return errno.OK
}

// KillZone returns the zone-outage schedule: machines in zone die
// while From <= t < Until on the orchestrator's virtual clock.
func KillZone(zone uint64, from, until cost.Ticks) Schedule {
	return ZoneOutage{Zone: zone, From: from, Until: until}
}

// netMagShift packs a frame's endpoints into Op.Mag for the network
// points: src in the high bits, dst in the low 20 (machine ids are
// bounded by the fleet's 1<<20 machine cap).
const netMagShift = 20

// NetMag packs a frame's (src, dst) machine addresses into one
// magnitude word for PointNetSend/PointNetDeliver ops.
func NetMag(src, dst int) uint64 {
	return uint64(src)<<netMagShift | uint64(dst)&(1<<netMagShift-1)
}

// NetMagSrc unpacks the source address of a NetMag word.
func NetMagSrc(mag uint64) int { return int(mag >> netMagShift) }

// NetMagDst unpacks the destination address of a NetMag word.
func NetMagDst(mag uint64) int { return int(mag & (1<<netMagShift - 1)) }

// LinkDown is one directed link severed for a window: every
// PointNetSend/PointNetDeliver op whose NetMag endpoints match (Src,
// Dst) fails with EIO while From <= t < Until. Like every schedule it
// is a pure function of the op, so a cut link replays bit-for-bit.
type LinkDown struct {
	Src, Dst    int
	From, Until cost.Ticks
}

// Decide implements Schedule.
func (l LinkDown) Decide(op Op) errno.Errno {
	if op.Point != PointNetSend && op.Point != PointNetDeliver {
		return errno.OK
	}
	if NetMagSrc(op.Mag) == l.Src && NetMagDst(op.Mag) == l.Dst &&
		op.Time >= l.From && op.Time < l.Until {
		return errno.EIO
	}
	return errno.OK
}

// NetSplit partitions a set of machine addresses away from the rest of
// the fabric for a window: every PointNetDeliver op whose NetMag
// endpoints straddle the cut (exactly one endpoint in Isolated) is
// dropped while From <= t < Until. Traffic wholly inside or wholly
// outside the isolated set still flows — the classic netsplit, as a
// schedulable input.
type NetSplit struct {
	Isolated    []int // machine addresses on the cut-off side
	From, Until cost.Ticks
}

func (n NetSplit) isolated(addr int) bool {
	for _, a := range n.Isolated {
		if a == addr {
			return true
		}
	}
	return false
}

// Decide implements Schedule.
func (n NetSplit) Decide(op Op) errno.Errno {
	if op.Point != PointNetDeliver || op.Time < n.From || op.Time >= n.Until {
		return errno.OK
	}
	if n.isolated(NetMagSrc(op.Mag)) != n.isolated(NetMagDst(op.Mag)) {
		return errno.EIO
	}
	return errno.OK
}

// ZonePartition is the cluster-level netsplit: the balancer probes
// each candidate machine's reachability with a PointNetDeliver op
// whose magnitude is the machine's zone index (the PointMachineKill
// convention), and every probe naming Zone fails while From <= t <
// Until. Machines in the partitioned zone stay alive and keep their
// queues — they are merely unreachable, so routed traffic must flow
// around them and their backlog survives the healing.
type ZonePartition struct {
	Zone        uint64
	From, Until cost.Ticks
}

// Decide implements Schedule.
func (z ZonePartition) Decide(op Op) errno.Errno {
	if op.Point == PointNetDeliver && op.Mag == z.Zone && op.Time >= z.From && op.Time < z.Until {
		return errno.EIO
	}
	return errno.OK
}

// random fails each targeted operation with probability perMille/1000,
// decided by hashing (seed, machine, point, seq).
type random struct {
	seed     uint64
	machine  int
	perMille uint64
	err      errno.Errno
	points   []Point
}

func (r random) Decide(op Op) errno.Errno {
	targeted := len(r.points) == 0
	for _, p := range r.points {
		if p == op.Point {
			targeted = true
			break
		}
	}
	if !targeted {
		return errno.OK
	}
	if mix(r.seed, uint64(r.machine), uint64(op.Point), op.Seq)%1000 < r.perMille {
		return r.err
	}
	return errno.OK
}

// Random returns a pseudo-random schedule failing each targeted
// operation with probability perMille/1000 (no points = all points).
// Deterministic: the same seed replays the same faults, which is what
// lets a fuzzer shrink and replay failing schedules.
func Random(seed uint64, machine int, perMille uint64, err errno.Errno, points ...Point) Schedule {
	if perMille > 1000 {
		perMille = 1000
	}
	return random{seed: seed, machine: machine, perMille: perMille, err: err, points: points}
}

// any combines schedules: the first non-OK decision wins.
type anySched []Schedule

func (a anySched) Decide(op Op) errno.Errno {
	for _, s := range a {
		if s == nil {
			continue
		}
		if e := s.Decide(op); e != errno.OK {
			return e
		}
	}
	return errno.OK
}

// Any combines schedules; an operation fails if any component says so
// (first non-OK errno wins).
func Any(scheds ...Schedule) Schedule { return anySched(scheds) }

// Chaos is the fleet chaos mode's standard schedule for one machine:
// periodic ENOMEM pressure waves against commit reservations (harsh on
// big requests, lenient on small ones), occasional frame-allocation
// failures inside the same windows (the OOM-killer trigger), and a
// sparse kill wave crashing roughly one in eight workers. Pure
// function of (seed, machine id, virtual time, op counter).
func Chaos(seed uint64, machine int) Schedule {
	return Any(
		PressureWave{
			Seed: seed, Machine: machine,
			Period: 4 * cost.Millisecond, Duty: cost.Millisecond,
			Scale: 4096, Err: errno.ENOMEM,
			Points: []Point{PointCommit, PointPTClone},
		},
		PressureWave{
			Seed: seed ^ 0x5ca1ab1e, Machine: machine,
			Period: 4 * cost.Millisecond, Duty: cost.Millisecond,
			Scale: 256, Err: errno.ENOMEM,
			Points: []Point{PointFrameAlloc},
		},
		KillEvery(seed, machine, 8),
	)
}

// NetChaos is the chaos-mode schedule for distributed (fabric-backed)
// loads on one machine-cell: roughly 2% of frames dropped at send
// and 2% more at delivery, deterministically hashed from
// (seed, cell id, point, frame seq). Pure function of its inputs, so
// a lossy fabric replays bit-for-bit at any host parallelism.
func NetChaos(seed uint64, machine int) Schedule {
	return Any(
		Random(seed^0xfab1c, machine, 20, errno.EIO, PointNetSend),
		Random(seed^0xd0e11e, machine, 20, errno.EIO, PointNetDeliver),
	)
}

// Injector is one machine's fault-injection engine: it counts every
// operation per point, consults the schedule, and records injected
// faults into the machine's trace. All methods are nil-receiver-safe
// so call sites need no guards; a nil injector counts nothing and
// fails nothing.
type Injector struct {
	meter    *cost.Meter
	sched    Schedule
	rec      *Recorder
	counts   [NumPoints]uint64
	injected uint64
}

// NewInjector creates an injector reading virtual time from meter and
// deciding via sched (which may be Observe() for count-only runs).
func NewInjector(meter *cost.Meter, sched Schedule) *Injector {
	return &Injector{meter: meter, sched: sched}
}

// SetSchedule replaces the schedule (counts are preserved: op counters
// identify operations since boot, not since the schedule changed).
func (i *Injector) SetSchedule(s Schedule) {
	if i != nil {
		i.sched = s
	}
}

// SetRecorder wires injected faults into a trace recorder.
func (i *Injector) SetRecorder(r *Recorder) {
	if i != nil {
		i.rec = r
	}
}

// Fail consults the schedule for one operation at point with the given
// magnitude. It returns OK to proceed or the errno the operation must
// fail with. Every call counts, fault or not.
func (i *Injector) Fail(point Point, mag uint64) errno.Errno {
	if i == nil {
		return errno.OK
	}
	i.counts[point]++
	if i.sched == nil {
		return errno.OK
	}
	op := Op{Point: point, Seq: i.counts[point], Time: i.meter.Now(), Mag: mag}
	e := i.sched.Decide(op)
	if e != errno.OK {
		i.injected++
		i.rec.Record(Event{
			Time: op.Time, CPU: i.meter.ActiveCPU(), Kind: EvFault,
			Pid: -1, Num: uint64(point), Aux: op.Seq, Err: e,
		})
	}
	return e
}

// Count reports how many operations have crossed point since boot.
func (i *Injector) Count(p Point) uint64 {
	if i == nil {
		return 0
	}
	return i.counts[p]
}

// Counts snapshots every point's operation count.
func (i *Injector) Counts() [NumPoints]uint64 {
	if i == nil {
		return [NumPoints]uint64{}
	}
	return i.counts
}

// Injected reports how many faults have actually fired.
func (i *Injector) Injected() uint64 {
	if i == nil {
		return 0
	}
	return i.injected
}
