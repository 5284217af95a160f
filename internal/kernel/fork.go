package kernel

import (
	"repro/internal/cost"
	"repro/internal/errno"
	"repro/internal/fault"
)

// ForkMode selects the duplication strategy. core.Fork maps a creation
// method onto it; a machine's own forks take forkMode.
type ForkMode int

// Fork modes.
const (
	// ForkCOW is modern fork: page tables are mirrored with every
	// private page marked copy-on-write. Cost Θ(mapped pages).
	ForkCOW ForkMode = iota
	// ForkEager is 1970s fork: every private page is physically
	// copied at fork time (the paper's §2 history).
	ForkEager
	// ForkVfork shares the parent's address space outright and
	// suspends the parent until the child execs or exits.
	ForkVfork
)

// forkOpts controls doFork.
type forkOpts struct {
	mode  ForkMode
	start bool // enqueue the child thread (false for Go-harness children)
}

// doFork duplicates caller's process. On success the child's single
// thread is a copy of caller (registers included); the syscall layer
// fixes up return values. It fails with ENOMEM when commit or frames
// run out.
func (k *Kernel) doFork(caller *Thread, opts forkOpts) (*Process, error) {
	parent := caller.proc
	if k.opts.DenyMultithreadedFork && opts.mode != ForkVfork && parent.LiveThreads() > 1 {
		// §8 mitigation: refuse to capture an image containing
		// other threads' lock state. vfork is exempt — the child
		// shares rather than snapshots, and execs immediately.
		return nil, errno.EAGAIN
	}
	child := k.newProcess(parent.Name, parent, parent.sigs.Clone())

	// Address space: a vfork child borrows the parent's, any other
	// child owns a clone of it.
	child.space = parent.space
	if opts.mode != ForkVfork {
		var err error
		if opts.mode == ForkEager {
			child.space, err = parent.space.CloneEager()
		} else {
			child.space, err = parent.space.CloneCOW()
		}
		if err != nil {
			k.abortFork(child)
			return nil, err
		}
		child.spaceOwned = true
	}

	// Descriptors: every open slot gains a reference; offsets stay
	// shared (POSIX).
	if e := k.faults.Fail(fault.PointFDClone, uint64(parent.fds.OpenCount())); e != errno.OK {
		k.abortForkChild(child)
		return nil, e
	}
	var nfds int
	child.fds, nfds = parent.fds.Clone()
	k.meter.Charge(cost.Ticks(nfds) * k.meter.Model.FDClone)

	// Signals: dispositions copy (newProcess took the copy); pending
	// signals do NOT (POSIX).
	k.meter.Charge(k.meter.Model.SigClone)

	if e := k.faults.Fail(fault.PointThreadCreate, 1); e != errno.OK {
		child.fds.CloseAll()
		k.abortForkChild(child)
		return nil, e
	}

	// Exactly one thread survives into the child: the caller. This
	// is the composability trap of §4.2 — other threads' stacks
	// exist in the child's memory image, but the threads
	// themselves, and whatever locks they held, are gone.
	state := TParked
	if opts.start {
		state = TRunnable
	}
	ct := k.newThread(child, state)
	ct.regs = caller.regs
	ct.pc = caller.pc
	ct.sigMask = caller.sigMask

	if opts.mode == ForkVfork && opts.start {
		// Suspend the parent until the child execs or exits.
		child.vforkWaiter = caller
		caller.vforkChild = child
		k.block(caller, nil, "vfork")
	}
	return child, nil
}

// abortForkChild unwinds a child whose address space is already in
// place: the owned space is destroyed (a vfork child borrowing the
// parent's space just drops the reference) before the process-table
// entry goes.
func (k *Kernel) abortForkChild(child *Process) {
	if child.space != nil && child.spaceOwned {
		child.space.Destroy()
	}
	child.space = nil
	k.abortFork(child)
}

// abortFork unwinds a half-created child.
func (k *Kernel) abortFork(child *Process) {
	if par := child.parent; par != nil {
		for i, c := range par.children {
			if c == child {
				par.children = append(par.children[:i], par.children[i+1:]...)
				break
			}
		}
	}
	delete(k.procs, child.Pid)
}

// forkMode is the machine's own fork: ForkEager if the kernel was
// booted with EagerFork, else ForkCOW.
func (k *Kernel) forkMode() ForkMode {
	if k.opts.EagerFork {
		return ForkEager
	}
	return ForkCOW
}

// Fork is the Go-harness fork: it duplicates p (which must have at
// least one thread; synthetic processes have a parked one) by the
// machine's own fork mode and returns the parked child.
func (k *Kernel) Fork(p *Process) (*Process, error) {
	return k.ForkWithMode(p, k.forkMode())
}

// ForkWithMode forks p with an explicit strategy (ablation
// experiments). A harness ForkVfork shares the space but suspends
// nothing: there is no VM thread to suspend.
func (k *Kernel) ForkWithMode(p *Process, mode ForkMode) (*Process, error) {
	caller := p.MainThread()
	if caller == nil {
		return nil, errno.ESRCH
	}
	return k.doFork(caller, forkOpts{mode: mode})
}
