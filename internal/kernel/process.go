package kernel

import (
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/cost"
	"repro/internal/errno"
	"repro/internal/fault"
	"repro/internal/sig"
	"repro/internal/vfs"
)

// PID identifies a process.
type PID int

// ProcState is a process's lifecycle state.
type ProcState uint8

// Process states.
const (
	ProcAlive ProcState = iota
	ProcZombie
	ProcReaped
)

func (s ProcState) String() string {
	switch s {
	case ProcAlive:
		return "alive"
	case ProcZombie:
		return "zombie"
	case ProcReaped:
		return "reaped"
	}
	return fmt.Sprintf("proc(%d)", int(s))
}

// Process is one simulated process.
type Process struct {
	Pid  PID
	Name string

	parent   *Process
	children []*Process

	space      *addrspace.Space
	spaceOwned bool // false while a vfork child borrows the parent's space

	fds  *vfs.FDTable
	cwd  *vfs.Inode
	sigs *sig.Table

	// pending holds process-directed pending signals; any thread
	// with the signal unblocked may take it.
	pending sig.Set

	threads []*Thread
	nextTID int

	state      ProcState
	exitStatus uint64 // abi-encoded

	// childQ blocks threads of *this* process waiting in waitpid.
	childQ *WaitQueue

	// vforkWaiter is the parent thread suspended by vfork until
	// this child execs or exits.
	vforkWaiter *Thread

	started   cost.Ticks
	oomKilled bool

	// cpuTicks accumulates the virtual time this process's threads
	// executed on each CPU (one slot per simulated CPU).
	cpuTicks []cost.Ticks
}

// Space returns the process's address space.
func (p *Process) Space() *addrspace.Space { return p.space }

// FDs returns the descriptor table.
func (p *Process) FDs() *vfs.FDTable { return p.fds }

// Signals returns the disposition table.
func (p *Process) Signals() *sig.Table { return p.sigs }

// State reports the lifecycle state.
func (p *Process) State() ProcState { return p.state }

// ExitStatus reports the abi-encoded status (valid once a zombie).
func (p *Process) ExitStatus() uint64 { return p.exitStatus }

// OOMKilled reports whether the process died to the OOM killer.
func (p *Process) OOMKilled() bool { return p.oomKilled }

// CPUTicks returns a copy of the per-CPU virtual time this process's
// threads have executed (index = CPU id).
func (p *Process) CPUTicks() []cost.Ticks {
	return append([]cost.Ticks(nil), p.cpuTicks...)
}

// TotalCPUTicks sums CPUTicks across CPUs.
func (p *Process) TotalCPUTicks() cost.Ticks {
	var total cost.Ticks
	for _, t := range p.cpuTicks {
		total += t
	}
	return total
}

// chargeCPU records d ticks of execution on cpu (dispatcher callback).
func (p *Process) chargeCPU(cpu int, d cost.Ticks) { p.cpuTicks[cpu] += d }

// Parent returns the parent process (nil for init and synthetic roots).
func (p *Process) Parent() *Process { return p.parent }

// Cwd returns the working-directory inode.
func (p *Process) Cwd() *vfs.Inode { return p.cwd }

// SetCwd changes the working directory (dir must be a directory inode;
// harness-level chdir used by the public sim API).
func (p *Process) SetCwd(dir *vfs.Inode) error {
	if dir == nil || dir.Type != vfs.TypeDir {
		return errno.ENOTDIR
	}
	p.cwd = dir
	return nil
}

// MainThread returns the first live thread, or nil.
func (p *Process) MainThread() *Thread {
	for _, t := range p.threads {
		if t.state != TExited {
			return t
		}
	}
	return nil
}

// Threads returns all threads including exited ones (not a copy).
func (p *Process) Threads() []*Thread { return p.threads }

// LiveThreads counts non-exited threads.
func (p *Process) LiveThreads() int {
	n := 0
	for _, t := range p.threads {
		if t.state != TExited {
			n++
		}
	}
	return n
}

// TState is a thread's scheduler state.
type TState uint8

// Thread states.
const (
	// TParked threads exist but are never scheduled; synthetic
	// processes driven directly from Go use them.
	TParked TState = iota
	TRunnable
	TRunning
	TBlocked
	TExited
)

func (s TState) String() string {
	switch s {
	case TParked:
		return "parked"
	case TRunnable:
		return "runnable"
	case TRunning:
		return "running"
	case TBlocked:
		return "blocked"
	case TExited:
		return "exited"
	}
	return fmt.Sprintf("tstate(%d)", int(s))
}

// Thread is one simulated thread: a register file plus scheduling
// state. Threads of a process share its address space, descriptors,
// and signal dispositions; each has its own signal mask and pending
// set.
type Thread struct {
	TID  int
	proc *Process

	regs [16]uint64
	pc   uint64

	state TState
	// cpu is the thread's affinity: the CPU it last ran on (or was
	// placed on at creation). Wakeups enqueue here; the dispatcher's
	// stealing migrates the thread if this CPU lags.
	cpu int
	// dispatches counts scheduler dispatches of this thread
	// (fairness diagnostics).
	dispatches uint64
	// wait is the queue this thread is blocked on (nil otherwise);
	// waitReason names it for deadlock reports.
	wait       *WaitQueue
	waitReason string

	sigMask sig.Set
	pending sig.Set

	// sleepDeadline is the wakeup time while blocked in nanosleep.
	sleepDeadline cost.Ticks

	// exitStatusWord is where a waitpid should copy the status
	// (user address), captured when the wait blocks.
	waitPidTarget PID
	waitStatusVA  uint64

	// vforkChild is set while this thread is suspended by vfork.
	vforkChild *Process
}

// State reports the scheduler state.
func (t *Thread) State() TState { return t.state }

// PC returns the program counter.
func (t *Thread) PC() uint64 { return t.pc }

// Reg returns register n.
func (t *Thread) Reg(n int) uint64 { return t.regs[n&15] }

// SetReg sets register n.
func (t *Thread) SetReg(n int, v uint64) { t.regs[n&15] = v }

// SetPC sets the program counter.
func (t *Thread) SetPC(v uint64) { t.pc = v }

// SigMask returns the thread's blocked-signal set.
func (t *Thread) SigMask() sig.Set { return t.sigMask }

// CPU returns the thread's affinity CPU (the one it last ran on).
func (t *Thread) CPU() int { return t.cpu }

// Dispatches reports how many times the scheduler has dispatched this
// thread.
func (t *Thread) Dispatches() uint64 { return t.dispatches }

func (t *Thread) String() string {
	return fmt.Sprintf("pid%d/t%d(%s)", t.proc.Pid, t.TID, t.state)
}

// newThread adds a thread to p in the given state. Runnable threads
// are spread across CPUs (shortest queue, lowest id on ties).
func (k *Kernel) newThread(p *Process, state TState) *Thread {
	t := &Thread{TID: p.nextTID, proc: p, state: state}
	p.nextTID++
	p.threads = append(p.threads, t)
	k.meter.Charge(k.meter.Model.ThreadAlloc)
	if state == TRunnable {
		k.placeNewThread(t)
		k.enqueue(t)
	}
	return t
}

// newProcess allocates a process shell (no space, fds, or threads yet)
// with the signal table sigs, which the caller allocates once: a copy
// of the parent's for fork and spawn, the image's for a restore, and a
// fresh one otherwise. It is in place from the start, so a failure path
// that unwinds the shell never sees a nil table; the caller still
// charges SigClone where its copy is logically made.
func (k *Kernel) newProcess(name string, parent *Process, sigs *sig.Table) *Process {
	p := &Process{
		Pid:      k.nextPID,
		Name:     name,
		parent:   parent,
		cwd:      k.fs.Root(),
		sigs:     sigs,
		childQ:   &WaitQueue{name: "wait:children"},
		started:  k.meter.Now(),
		state:    ProcAlive,
		cpuTicks: make([]cost.Ticks, len(k.cpus)),
	}
	k.nextPID++
	if parent != nil {
		parent.children = append(parent.children, p)
		p.cwd = parent.cwd
	}
	k.procs[p.Pid] = p
	k.meter.Charge(k.meter.Model.ProcAlloc)
	if k.tracer != nil {
		ppid := PID(0)
		if parent != nil {
			ppid = parent.Pid
		}
		k.trace(fault.Event{Kind: fault.EvProcNew, Pid: int(p.Pid), Num: uint64(ppid), Name: name})
	}
	return p
}

// Lookup finds a process by pid (nil if unknown or reaped).
func (k *Kernel) Lookup(pid PID) *Process {
	p := k.procs[pid]
	if p == nil || p.state == ProcReaped {
		return nil
	}
	return p
}

// LiveProcessCount counts processes that are not zombies.
func (k *Kernel) LiveProcessCount() int {
	n := 0
	for _, p := range k.procs {
		if p.state == ProcAlive {
			n++
		}
	}
	return n
}

// StartProcess makes a parked process runnable (used by the
// cross-process construction API in internal/core: build everything,
// then start).
func (k *Kernel) StartProcess(p *Process) error {
	t := p.MainThread()
	if t == nil {
		return errno.ESRCH
	}
	if t.state == TParked {
		t.state = TRunnable
		k.placeNewThread(t)
		k.enqueue(t)
	}
	return nil
}

// ProcessCount reports all table entries including zombies.
func (k *Kernel) ProcessCount() int { return len(k.procs) }
