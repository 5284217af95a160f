// Package kernel is the simulated operating system: a process table,
// deterministic scheduler, virtual-memory management, descriptor
// layer, signals, futexes, and a syscall interface executed by the
// built-in bytecode VM.
//
// The kernel exposes two surfaces:
//
//   - the syscall ABI (internal/abi) used by programs assembled with
//     internal/asm and run on the VM, and
//   - a direct Go API (BootInit, NewSynthetic, Fork, Exec, Spawn,
//     StartProcess, WaitReap, ...) used
//     by the measurement harness in internal/experiments and by
//     internal/core, which implements the paper's proposed
//     process-creation APIs on top of these primitives.
//
// The machine has Options.NumCPUs simulated CPUs. Execution is still
// single-threaded on the host: the scheduler is a virtual-time-ordered
// loop that always runs the CPU with the lowest clock next (lowest id
// on ties), so concurrency exists in *virtual* time — work on
// different CPUs overlaps — while every run remains reproducible
// bit-for-bit. Each CPU owns a ring run queue; a CPU whose queue is
// empty steals the oldest thread from the longest queue (lowest id on
// ties). The dispatcher tracks which address space is live on each
// CPU, which is what prices TLB-shootdown IPIs (see internal/cost and
// internal/addrspace).
package kernel

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/addrspace"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/image"
	"repro/internal/mem"
	"repro/internal/vfs"
)

// Options configures a kernel instance. New validates: RAMBytes and
// NumCPUs are required (there is no silent default machine), Quantum
// must not be negative, and Commit must be one of the three policies.
// DefaultOptions supplies the conventional 4 GiB / 1-CPU machine.
type Options struct {
	// RAMBytes sizes physical memory, which is also the strict commit
	// limit. Required: zero is an error.
	RAMBytes uint64
	// Commit selects the overcommit policy (default heuristic).
	Commit mem.CommitPolicy
	// EagerFork switches fork to 1970s eager copying (ablation).
	EagerFork bool
	// DenyMultithreadedFork makes fork fail with EAGAIN when the
	// caller has more than one live thread — the mitigation §8 of
	// the paper proposes on the road to deprecating fork entirely
	// (a child that cannot deadlock is better than one that can).
	DenyMultithreadedFork bool
	// Quantum is the scheduler timeslice in instructions (0 selects
	// the default of 2048; negative is an error).
	Quantum int
	// NumCPUs is the number of simulated CPUs. Required: a value
	// below 1 (including the zero value) is an error, above
	// cost.MaxCPUs too.
	NumCPUs int
	// ConsoleOut receives /dev/console writes (default: discard).
	ConsoleOut io.Writer
	// ConsoleIn supplies /dev/console reads (default: EOF).
	ConsoleIn io.Reader
	// Faults installs a deterministic fault-injection schedule at
	// boot: every fallible boundary (frame allocation, commit
	// reservation, page-table clone, COW break, descriptor-table
	// copy, exec image load, thread creation) consults it. nil
	// disables injection entirely (zero overhead on the hot paths).
	Faults fault.Schedule
	// Trace enables the structured event trace: syscall enter/exit,
	// scheduler dispatches, TLB-shootdown rounds, injected faults,
	// and process lifecycle, readable via Tracer.
	Trace bool
}

// DefaultQuantum is the timeslice used when Options.Quantum is zero.
const DefaultQuantum = 2048

// DefaultOptions returns the conventional machine: 4 GiB of RAM, one
// CPU, default quantum.
func DefaultOptions() Options {
	return Options{RAMBytes: 4 << 30, NumCPUs: 1}
}

// Validate reports the first configuration error, or nil. New calls it;
// callers constructing Options programmatically can call it earlier.
func (o Options) Validate() error {
	if o.RAMBytes == 0 {
		return fmt.Errorf("kernel: Options.RAMBytes must be > 0 (no default machine size; use DefaultOptions)")
	}
	if o.RAMBytes < mem.PageSize {
		return fmt.Errorf("kernel: Options.RAMBytes %d is below one %d-byte page", o.RAMBytes, mem.PageSize)
	}
	if o.Commit < mem.CommitHeuristic || o.Commit > mem.CommitAlways {
		return fmt.Errorf("kernel: Options.Commit %v is not a commit policy (heuristic, strict or always)", o.Commit)
	}
	if o.Quantum < 0 {
		return fmt.Errorf("kernel: Options.Quantum %d is negative", o.Quantum)
	}
	if o.NumCPUs < 1 {
		return fmt.Errorf("kernel: Options.NumCPUs %d must be at least 1", o.NumCPUs)
	}
	if o.NumCPUs > cost.MaxCPUs {
		return fmt.Errorf("kernel: Options.NumCPUs %d exceeds the %d-CPU limit", o.NumCPUs, cost.MaxCPUs)
	}
	return nil
}

// cpu is one simulated processor: its run queue, dispatch accounting,
// and the address space currently live on it. Virtual time lives in
// the meter (one clock per CPU); the scheduler orders CPUs by it.
type cpu struct {
	id       int
	runq     runQueue
	switches uint64
	steals   uint64
	// curSpace is the address space of the last thread dispatched
	// here. While set, the space is marked resident on this CPU and
	// pays a TLB-shootdown IPI here for remote translation changes.
	curSpace *addrspace.Space
}

// Kernel is one simulated machine.
type Kernel struct {
	opts  Options
	meter *cost.Meter
	phys  *mem.Physical
	fs    *vfs.FS

	procs   map[PID]*Process
	nextPID PID

	cpus     []cpu
	sleepers []*Thread // blocked in nanosleep, unordered

	futexes map[futexKey]*WaitQueue

	// faults is the fault-injection engine (nil = injection off; all
	// Fail call sites are nil-safe). tracer is the structured event
	// trace (nil = tracing off).
	faults *fault.Injector
	tracer *fault.Recorder

	// Diagnostics.
	OOMKills  int
	SegvKills int
	lastStop  StopInfo
}

// StopReason reports why Run returned.
type StopReason int

// Stop reasons.
const (
	StopIdle StopReason = iota // no runnable, no sleeping, no live threads
	StopDeadlock
	StopLimit
)

func (r StopReason) String() string {
	switch r {
	case StopIdle:
		return "idle"
	case StopDeadlock:
		return "deadlock"
	case StopLimit:
		return "limit"
	}
	return fmt.Sprintf("stop(%d)", int(r))
}

// StopInfo is the per-CPU-aware stop record: which CPU the stop
// decision was made on (-1 for machine-wide conditions like idle and
// deadlock) and the machine's virtual time at that moment.
type StopInfo struct {
	Reason      StopReason
	CPU         int
	VirtualTime cost.Ticks
}

func (si StopInfo) String() string {
	if si.CPU < 0 {
		return fmt.Sprintf("%v at %v", si.Reason, si.VirtualTime)
	}
	return fmt.Sprintf("%v on cpu%d at %v", si.Reason, si.CPU, si.VirtualTime)
}

// CPUState is a diagnostic snapshot of one simulated CPU.
type CPUState struct {
	CPU      int
	Clock    cost.Ticks // this CPU's virtual time
	Busy     cost.Ticks // clock minus idle fast-forwards
	QueueLen int
	Switches uint64 // dispatches on this CPU
	Steals   uint64 // dispatches that took work from another queue
}

func (cs CPUState) String() string {
	return fmt.Sprintf("cpu%d clock=%v busy=%v queue=%d switches=%d steals=%d",
		cs.CPU, cs.Clock, cs.Busy, cs.QueueLen, cs.Switches, cs.Steals)
}

// New boots a kernel with an empty filesystem containing /dev, /bin,
// and /tmp. It returns an error for invalid Options (see
// Options.Validate).
func New(opts Options) (*Kernel, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Quantum == 0 {
		opts.Quantum = DefaultQuantum
	}
	meter := cost.NewMeterSMP(cost.DefaultModel(), opts.NumCPUs)
	k := &Kernel{
		opts:    opts,
		meter:   meter,
		phys:    mem.NewPhysical(meter, opts.RAMBytes, opts.Commit),
		fs:      vfs.NewFS(),
		procs:   map[PID]*Process{},
		nextPID: 1,
		cpus:    make([]cpu, opts.NumCPUs),
		futexes: map[futexKey]*WaitQueue{},
	}
	for i := range k.cpus {
		k.cpus[i].id = i
	}
	for _, d := range []string{"/dev", "/bin", "/tmp"} {
		if _, err := k.fs.MkdirAll(d); err != nil {
			panic(err)
		}
	}
	if _, err := k.fs.Mknod("/dev/null", vfs.NullDevice{}); err != nil {
		panic(err)
	}
	console := &vfs.ConsoleDevice{In: opts.ConsoleIn, Out: opts.ConsoleOut}
	if _, err := k.fs.Mknod("/dev/console", console); err != nil {
		panic(err)
	}
	if opts.Trace {
		k.tracer = fault.NewRecorder()
		k.meter.OnShootdown = func(remotes int) {
			k.trace(fault.Event{Kind: fault.EvShootdown, Pid: -1, Num: uint64(remotes)})
		}
	}
	if opts.Faults != nil {
		k.SetFaultSchedule(opts.Faults)
	}
	return k, nil
}

// SetFaultSchedule installs (or replaces) the machine's fault
// schedule. The injector's per-point op counters persist across
// schedule swaps — they identify operations since boot, which is what
// lets a clean Observe run enumerate the targets for a later sweep.
func (k *Kernel) SetFaultSchedule(s fault.Schedule) {
	if k.faults == nil {
		k.faults = fault.NewInjector(k.meter, s)
		k.faults.SetRecorder(k.tracer)
		k.phys.SetInjector(k.faults)
		return
	}
	k.faults.SetSchedule(s)
}

// Faults returns the fault-injection engine (nil when injection is
// off). The load drivers consult workload-level points through it.
func (k *Kernel) Faults() *fault.Injector { return k.faults }

// Tracer returns the structured event trace (nil unless Options.Trace
// was set).
func (k *Kernel) Tracer() *fault.Recorder { return k.tracer }

// trace records one event, filling in time and CPU from the meter.
// It is cheap to call unconditionally guarded (tracer nil-checks are
// at the hot call sites).
func (k *Kernel) trace(e fault.Event) {
	if k.tracer == nil {
		return
	}
	e.Time = k.meter.Now()
	e.CPU = k.meter.ActiveCPU()
	k.tracer.Record(e)
}

// Meter exposes the cost meter (experiments read the clock and event
// counters from here).
func (k *Kernel) Meter() *cost.Meter { return k.meter }

// Now returns the current virtual time on the active CPU.
func (k *Kernel) Now() cost.Ticks { return k.meter.Now() }

// Elapsed returns the machine-wide virtual time: the furthest-ahead
// CPU clock. On a 1-CPU machine it equals Now.
func (k *Kernel) Elapsed() cost.Ticks { return k.meter.MaxClock() }

// Phys exposes physical memory.
func (k *Kernel) Phys() *mem.Physical { return k.phys }

// FS exposes the filesystem (for mkfs-style setup).
func (k *Kernel) FS() *vfs.FS { return k.fs }

// Options returns the boot options.
func (k *Kernel) Options() Options { return k.opts }

// NumCPUs reports the simulated CPU count.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// LastStop reports why the previous Run returned.
func (k *Kernel) LastStop() StopReason { return k.lastStop.Reason }

// LastStopInfo reports why — and where — the previous Run returned.
func (k *Kernel) LastStopInfo() StopInfo { return k.lastStop }

// ContextSwitches reports the scheduler's total dispatch count across
// all CPUs since the meter's counters were last reset.
func (k *Kernel) ContextSwitches() uint64 { return k.meter.ContextSwitches }

// CPUStates snapshots every CPU's scheduler state (diagnostics,
// utilization reporting).
func (k *Kernel) CPUStates() []CPUState {
	out := make([]CPUState, len(k.cpus))
	for i := range k.cpus {
		c := &k.cpus[i]
		out[i] = CPUState{
			CPU:      c.id,
			Clock:    k.meter.CPUClock(c.id),
			Busy:     k.meter.CPUBusy(c.id),
			QueueLen: c.runq.Len(),
			Switches: c.switches,
			Steals:   c.steals,
		}
	}
	return out
}

// WaitQueue is a FIFO of blocked threads.
type WaitQueue struct {
	name string
	ts   []*Thread
}

// NewWaitQueue creates a named queue (name appears in deadlock reports).
func NewWaitQueue(name string) *WaitQueue { return &WaitQueue{name: name} }

// Len reports the number of waiters.
func (q *WaitQueue) Len() int { return len(q.ts) }

// block parks t on q. The current instruction is *not* advanced, so
// the syscall retries when the thread is woken (all blocking syscalls
// in this kernel are restartable). A nil queue is allowed for waits
// that are woken directly (vfork's parent suspension).
func (k *Kernel) block(t *Thread, q *WaitQueue, reason string) {
	if t.state == TBlocked {
		panic("kernel: double block of " + t.String())
	}
	t.state = TBlocked
	t.wait = q
	t.waitReason = reason
	if q != nil {
		q.ts = append(q.ts, t)
	}
}

// unblock makes t runnable again, removing it from its queue. The
// thread goes back to its affinity CPU's queue (the CPU it last ran
// on); the work-stealing dispatcher migrates it if that CPU lags.
func (k *Kernel) unblock(t *Thread) {
	if t.state != TBlocked {
		return
	}
	if q := t.wait; q != nil {
		for i, w := range q.ts {
			if w == t {
				q.ts = append(q.ts[:i], q.ts[i+1:]...)
				break
			}
		}
	}
	t.wait = nil
	t.waitReason = ""
	// sleepDeadline is deliberately left alone: the nanosleep
	// handler clears it when the sleep completes, and a sleeper
	// woken early (signal) re-blocks for the remaining time.
	t.state = TRunnable
	k.enqueue(t)
}

// enqueue pushes a runnable thread onto its affinity CPU's queue.
func (k *Kernel) enqueue(t *Thread) {
	k.cpus[t.cpu].runq.push(t)
}

// placeNewThread assigns a first CPU to a brand-new runnable thread:
// the shortest queue, lowest id on ties — a deterministic spread that
// puts sibling threads on different CPUs.
func (k *Kernel) placeNewThread(t *Thread) {
	best := 0
	for i := 1; i < len(k.cpus); i++ {
		if k.cpus[i].runq.Len() < k.cpus[best].runq.Len() {
			best = i
		}
	}
	t.cpu = best
}

// wakeOne wakes the oldest waiter; it reports whether one was woken.
func (k *Kernel) wakeOne(q *WaitQueue) bool {
	if len(q.ts) == 0 {
		return false
	}
	k.unblock(q.ts[0])
	return true
}

// wakeAll wakes every waiter and reports how many.
func (k *Kernel) wakeAll(q *WaitQueue) int {
	n := 0
	for len(q.ts) > 0 {
		k.unblock(q.ts[0])
		n++
	}
	return n
}

// RunLimits bounds a Run call. Zero fields mean "no limit".
type RunLimits struct {
	MaxInstructions uint64
	// MaxTicks bounds machine-wide elapsed virtual time, measured
	// from the furthest-ahead CPU clock at the call.
	MaxTicks cost.Ticks
}

// DeadlockError reports a simulation where live threads exist but none
// can ever run again — e.g. the child of a multithreaded fork blocking
// on a mutex whose holder was not duplicated (§4.2 of the paper).
type DeadlockError struct {
	Threads []string   // blocked-thread descriptions, sorted by pid/tid
	CPUs    []CPUState // per-CPU scheduler state at detection time
}

func (e *DeadlockError) Error() string {
	msg := fmt.Sprintf("kernel: deadlock: %d thread(s) blocked forever: %s",
		len(e.Threads), strings.Join(e.Threads, "; "))
	if len(e.CPUs) > 1 {
		states := make([]string, len(e.CPUs))
		for i, cs := range e.CPUs {
			states[i] = cs.String()
		}
		msg += " [" + strings.Join(states, ", ") + "]"
	}
	return msg
}

// queuedThreads counts entries across every CPU's run queue (stale
// entries for exited threads included; pops skip those lazily).
func (k *Kernel) queuedThreads() int {
	n := 0
	for i := range k.cpus {
		n += k.cpus[i].runq.Len()
	}
	return n
}

// nextCPU picks the CPU that executes next: lowest clock, lowest id on
// ties. Executing in virtual-time order is what makes the N-CPU
// machine deterministic — there is never a host-dependent choice.
func (k *Kernel) nextCPU() *cpu {
	best := 0
	bc := k.meter.CPUClock(0)
	for i := 1; i < len(k.cpus); i++ {
		if c := k.meter.CPUClock(i); c < bc {
			best, bc = i, c
		}
	}
	return &k.cpus[best]
}

// stealVictim picks the queue to steal from: the longest, lowest id on
// ties. Returns nil if every queue is empty.
func (k *Kernel) stealVictim() *cpu {
	best := -1
	for i := range k.cpus {
		if k.cpus[i].runq.Len() == 0 {
			continue
		}
		if best == -1 || k.cpus[i].runq.Len() > k.cpus[best].runq.Len() {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	return &k.cpus[best]
}

// Run drives the machine until every thread has exited or parked
// (StopIdle), the system deadlocks (returns *DeadlockError), or a
// limit is hit (StopLimit). It is the only place virtual time advances
// for instruction execution. CPUs execute in virtual-time order: the
// lowest-clock CPU dispatches next, from its own queue or — when
// empty — by stealing the oldest thread from the longest queue.
func (k *Kernel) Run(limits RunLimits) error {
	startInstr := k.meter.Instructions
	deadline := cost.Ticks(0)
	if limits.MaxTicks != 0 {
		deadline = k.meter.MaxClock() + limits.MaxTicks
	}
	for {
		if limits.MaxInstructions != 0 && k.meter.Instructions-startInstr >= limits.MaxInstructions {
			k.stop(StopLimit, k.meter.ActiveCPU())
			return nil
		}
		if k.queuedThreads() == 0 {
			if k.wakeSleepers() {
				continue
			}
			// No runnable, no sleeper: deadlock if any thread is
			// still blocked.
			if stuck := k.stuckThreads(); len(stuck) > 0 {
				err := &DeadlockError{Threads: stuck, CPUs: k.CPUStates()}
				k.stop(StopDeadlock, -1)
				return err
			}
			// Fully quiesced: the machine waited for its last
			// CPU — bring every clock to the barrier so
			// subsequent harness work starts from a single
			// point in time.
			k.AdvanceTo(k.meter.MaxClock())
			k.stop(StopIdle, -1)
			return nil
		}
		c := k.nextCPU()
		if deadline != 0 && k.meter.CPUClock(c.id) >= deadline {
			k.stop(StopLimit, c.id)
			return nil
		}
		t, stolen := k.take(c)
		if t == nil || t.state != TRunnable {
			continue // exited or re-blocked while queued
		}
		if stolen {
			c.steals++
		}
		k.dispatch(c, t, stolen, limits, startInstr, deadline)
	}
}

// take pops the next thread for c: its own queue first, then a steal.
func (k *Kernel) take(c *cpu) (t *Thread, stolen bool) {
	if c.runq.Len() > 0 {
		return c.runq.pop(), false
	}
	v := k.stealVictim()
	if v == nil {
		return nil, false
	}
	return v.runq.pop(), true
}

// stop records the reason Run returned.
func (k *Kernel) stop(r StopReason, cpu int) {
	k.lastStop = StopInfo{Reason: r, CPU: cpu, VirtualTime: k.meter.MaxClock()}
}

// stuckThreads collects blocked-thread descriptions, sorted by pid and
// tid so reports are deterministic.
func (k *Kernel) stuckThreads() []string {
	type stuckKey struct {
		pid PID
		tid int
	}
	var keys []stuckKey
	desc := map[stuckKey]string{}
	for _, p := range k.procs {
		if p.state != ProcAlive {
			continue
		}
		for _, t := range p.threads {
			if t.state == TBlocked {
				key := stuckKey{p.Pid, t.TID}
				keys = append(keys, key)
				desc[key] = fmt.Sprintf("%s on %s", t, t.waitReason)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	out := make([]string, len(keys))
	for i, key := range keys {
		out[i] = desc[key]
	}
	return out
}

// AdvanceTo fast-forwards every CPU to the absolute virtual time
// deadline, recording the gap as idle: the machine waits for something
// outside it, such as the migrate cell's page stream arriving over the
// sim/net fabric. A CPU already at or past deadline keeps its clock, so
// a harness can advance to each arrival time without checking it.
func (k *Kernel) AdvanceTo(deadline cost.Ticks) {
	for i := range k.cpus {
		k.meter.IdleTo(i, deadline)
	}
}

// dispatch runs t on c for up to one quantum.
func (k *Kernel) dispatch(c *cpu, t *Thread, stolen bool, limits RunLimits, startInstr uint64, deadline cost.Ticks) {
	k.meter.SetActiveCPU(c.id)
	if k.tracer != nil {
		var aux uint64
		if stolen {
			aux = 1
		}
		k.trace(fault.Event{Kind: fault.EvSched, Pid: int(t.proc.Pid), Tid: t.TID, Aux: aux})
	}
	t.cpu = c.id
	t.state = TRunning
	t.dispatches++
	c.switches++
	k.meter.ContextSwitches++
	k.switchSpace(c, t.proc.space)
	before := k.meter.CPUClock(c.id)
	k.meter.Charge(k.meter.Model.ContextSwitch)
	for i := 0; i < k.opts.Quantum; i++ {
		if t.state != TRunning {
			break // blocked or exited inside step
		}
		if limits.MaxInstructions != 0 && k.meter.Instructions-startInstr >= limits.MaxInstructions {
			break
		}
		if deadline != 0 && k.meter.Now() >= deadline {
			break
		}
		k.step(t)
	}
	t.proc.chargeCPU(c.id, k.meter.CPUClock(c.id)-before)
	if t.state == TRunning {
		t.state = TRunnable
		k.enqueue(t)
	}
}

// switchSpace updates c's live address space and the residency mask
// that prices TLB shootdowns: the outgoing space no longer pays IPIs
// for this CPU, the incoming one does.
func (k *Kernel) switchSpace(c *cpu, next *addrspace.Space) {
	if c.curSpace == next {
		return
	}
	if c.curSpace != nil {
		c.curSpace.ClearResident(c.id)
	}
	c.curSpace = next
	if next != nil {
		next.MarkResident(c.id)
	}
}

// spaceRetired clears any per-CPU reference to a destroyed (or
// replaced) address space so residency never outlives the space.
func (k *Kernel) spaceRetired(s *addrspace.Space) {
	if s == nil {
		return
	}
	for i := range k.cpus {
		if k.cpus[i].curSpace == s {
			// Drop the residency bit too: a space that survives
			// retirement (a vfork child leaving its parent's
			// space) must not keep paying IPIs for this CPU.
			s.ClearResident(k.cpus[i].id)
			k.cpus[i].curSpace = nil
		}
	}
}

// wakeSleepers advances every CPU to the earliest sleep deadline
// (recorded as idle time) and wakes the threads due then. It reports
// whether anything was woken.
func (k *Kernel) wakeSleepers() bool {
	if len(k.sleepers) == 0 {
		return false
	}
	earliest := cost.Ticks(0)
	found := false
	for _, t := range k.sleepers {
		if t.state != TBlocked {
			continue // woken early; stale entry dropped below
		}
		if !found || t.sleepDeadline < earliest {
			earliest, found = t.sleepDeadline, true
		}
	}
	if !found {
		k.sleepers = k.sleepers[:0]
		return false
	}
	for i := range k.cpus {
		k.meter.IdleTo(i, earliest)
	}
	rest := k.sleepers[:0]
	woke := false
	for _, t := range k.sleepers {
		switch {
		case t.state != TBlocked:
			// Woken early (e.g. by a signal); drop the stale
			// sleeper entry.
		case t.sleepDeadline <= earliest:
			k.unblock(t)
			woke = true
		default:
			rest = append(rest, t)
		}
	}
	k.sleepers = rest
	return woke
}

// newSpace creates an empty address space bound to this kernel's
// physical memory and meter.
func (k *Kernel) newSpace() *addrspace.Space { return addrspace.New(k.phys, k.meter) }

// InstallImage writes an executable image into the filesystem at path
// (mkfs helper used by boot code, tests, and the experiment harness).
func (k *Kernel) InstallImage(path string, im *image.Image) error {
	_, err := k.fs.WriteFile(path, im.Encode())
	return err
}
