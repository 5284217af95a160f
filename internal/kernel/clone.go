package kernel

import (
	"sort"

	"repro/internal/addrspace"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/vfs"
)

// cloneCtx memoises every object reached while cloning a kernel so the
// clone's object graph has exactly the source's aliasing structure:
// a vfork child borrowing its parent's space borrows the *cloned*
// parent's space, two descriptors dup'd onto one description stay
// dup'd, and a thread queued on a wait queue appears exactly once in
// the cloned queue. Cyclic references (proc.parent/children,
// thread.proc, queue.ts) are handled shell-then-fill: the clone object
// is registered before its fields are filled.
type cloneCtx struct {
	nk      *Kernel
	markSrc bool
	vc      *vfs.Cloner
	spaces  map[*addrspace.Space]*addrspace.Space
	procs   map[*Process]*Process
	threads map[*Thread]*Thread
	queues  map[*WaitQueue]*WaitQueue
}

// Clone duplicates the whole machine — processes, threads, address
// spaces, page tables, physical frames, filesystem, descriptor tables,
// pipes, wait queues, futexes, scheduler queues, fault engine, trace,
// and every meter clock and counter — into an independent kernel that
// is logically an exact deep copy: running the same workload on clone
// and source produces byte-identical virtual-time metrics and traces.
// Host cost is O(live structures), not Θ(heap): frame contents and
// file data are aliased copy-on-write (see mem.Physical.CloneHost and
// vfs.Cloner), and nothing here charges the meter.
//
// markSrc selects snapshot semantics (true: the source keeps running
// and must also break sharing before in-place writes — freezing a live
// machine into a template) versus stamping semantics (false: the
// source is a frozen template that is only read, so concurrent Clone
// calls on one template are race-free). A snapshot first gives every
// page table its own copy of each leaf it shares with another table
// since a fork (pagetable.Table.PrivatizeAll): the template's leaves
// are immutable and cannot count links, so its frame counts must be
// the eager ones.
func (k *Kernel) Clone(markSrc bool) *Kernel {
	return k.CloneInto(markSrc, nil)
}

// CloneInto is Clone recycling a retired clone's allocations: the
// scratch kernel's process map, futex map, cpu slice, and physical
// frame books are rewritten in place instead of reallocated (see
// mem.Physical.CloneHostInto). scratch must be dead — stamping a fleet
// machine into the shell of a retired one is the intended use (see
// sim.Template.Release) — and must not be k itself. A nil scratch
// allocates fresh, exactly like Clone; either way the result is
// logically an exact deep copy of k, with every scratch field
// rewritten or zeroed.
func (k *Kernel) CloneInto(markSrc bool, scratch *Kernel) *Kernel {
	// Processes in pid order (map iteration must not decide creation
	// order of anything order-bearing; it doesn't — all slices are
	// copied from source order — but sorted traversal keeps the clone
	// walk itself reproducible).
	pids := make([]PID, 0, len(k.procs))
	for pid := range k.procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	// Before the frame counts are copied (see Clone). Host-only.
	if markSrc {
		for _, pid := range pids {
			if s := k.procs[pid].space; s != nil {
				s.PageTable().PrivatizeAll()
			}
		}
	}

	nm := k.meter.Clone()
	nk := scratch
	if nk == nil {
		nk = &Kernel{}
	}
	np := k.phys.CloneHostInto(nm, nk.phys)
	tracer := k.tracer.Clone()

	procs := nk.procs
	if procs == nil {
		procs = make(map[PID]*Process, len(k.procs))
	} else {
		clear(procs)
	}
	futexes := nk.futexes
	if futexes == nil {
		futexes = make(map[futexKey]*WaitQueue, len(k.futexes))
	} else {
		clear(futexes)
	}
	cpus := nk.cpus
	if cap(cpus) >= len(k.cpus) {
		cpus = cpus[:len(k.cpus)]
		for i := range cpus {
			cpus[i] = cpu{}
		}
	} else {
		cpus = make([]cpu, len(k.cpus))
	}

	*nk = Kernel{
		opts:      k.opts,
		meter:     nm,
		phys:      np,
		nextPID:   k.nextPID,
		procs:     procs,
		cpus:      cpus,
		futexes:   futexes,
		tracer:    tracer,
		OOMKills:  k.OOMKills,
		SegvKills: k.SegvKills,
		lastStop:  k.lastStop,
	}
	if k.faults != nil {
		nk.faults = k.faults.Clone(nm, tracer)
		np.SetInjector(nk.faults)
	}
	if tracer != nil {
		nm.OnShootdown = func(remotes int) {
			nk.trace(fault.Event{Kind: fault.EvShootdown, Pid: -1, Num: uint64(remotes)})
		}
	}

	c := &cloneCtx{
		nk:      nk,
		markSrc: markSrc,
		spaces:  map[*addrspace.Space]*addrspace.Space{},
		procs:   map[*Process]*Process{},
		threads: map[*Thread]*Thread{},
		queues:  map[*WaitQueue]*WaitQueue{},
	}
	c.vc = vfs.NewCloner(markSrc, func(q any) any {
		if wq, ok := q.(*WaitQueue); ok {
			return c.queue(wq)
		}
		return q
	})
	nk.fs = c.vc.FS(k.fs)

	for _, pid := range pids {
		nk.procs[pid] = c.proc(k.procs[pid])
	}

	for i := range k.cpus {
		src := &k.cpus[i]
		dst := &nk.cpus[i]
		dst.id = src.id
		dst.switches = src.switches
		dst.steals = src.steals
		dst.curSpace = c.space(src.curSpace)
		dst.runq.head = src.runq.head
		dst.runq.n = src.runq.n
		if src.runq.buf != nil {
			dst.runq.buf = make([]*Thread, len(src.runq.buf))
			for j, t := range src.runq.buf {
				dst.runq.buf[j] = c.thread(t)
			}
		}
	}

	if k.sleepers != nil {
		nk.sleepers = make([]*Thread, len(k.sleepers))
		for i, t := range k.sleepers {
			nk.sleepers[i] = c.thread(t)
		}
	}

	// Futex entries whose space is unreachable from any process are
	// stale leftovers of exited processes; their queues are empty and
	// futexQ recreates queues lazily, so dropping them is behaviour-
	// preserving. Entries with waiters always have a reachable space
	// (keys are built from a blocked thread's own space).
	for key, q := range k.futexes {
		ns, ok := c.spaces[key.space]
		if !ok {
			if len(q.ts) == 0 {
				continue
			}
			ns = c.space(key.space)
		}
		nk.futexes[futexKey{ns, key.va}] = c.queue(q)
	}

	return nk
}

// space memoises addrspace.Space.CloneHost, remapping file-backed VMAs
// (executable images are *vfs.Inode backings) into the clone's
// filesystem.
func (c *cloneCtx) space(s *addrspace.Space) *addrspace.Space {
	if s == nil {
		return nil
	}
	if dup, ok := c.spaces[s]; ok {
		return dup
	}
	dup := s.CloneHost(c.nk.phys, c.nk.meter, c.markSrc, func(b addrspace.Backing) addrspace.Backing {
		if ino, ok := b.(*vfs.Inode); ok {
			return c.vc.Inode(ino)
		}
		return b
	})
	c.spaces[s] = dup
	return dup
}

func (c *cloneCtx) proc(p *Process) *Process {
	if p == nil {
		return nil
	}
	if dup, ok := c.procs[p]; ok {
		return dup
	}
	dup := &Process{}
	c.procs[p] = dup
	dup.Pid = p.Pid
	dup.Name = p.Name
	dup.parent = c.proc(p.parent)
	if p.children != nil {
		dup.children = make([]*Process, len(p.children))
		for i, ch := range p.children {
			dup.children[i] = c.proc(ch)
		}
	}
	dup.space = c.space(p.space)
	dup.spaceOwned = p.spaceOwned
	dup.fds = c.vc.FDTable(p.fds)
	dup.cwd = c.vc.Inode(p.cwd)
	if p.sigs != nil {
		dup.sigs = p.sigs.Clone()
	}
	dup.pending = p.pending
	if p.threads != nil {
		dup.threads = make([]*Thread, len(p.threads))
		for i, t := range p.threads {
			dup.threads[i] = c.thread(t)
		}
	}
	dup.nextTID = p.nextTID
	dup.state = p.state
	dup.exitStatus = p.exitStatus
	dup.childQ = c.queue(p.childQ)
	dup.vforkWaiter = c.thread(p.vforkWaiter)
	dup.started = p.started
	dup.oomKilled = p.oomKilled
	dup.cpuTicks = append([]cost.Ticks(nil), p.cpuTicks...)
	return dup
}

func (c *cloneCtx) thread(t *Thread) *Thread {
	if t == nil {
		return nil
	}
	if dup, ok := c.threads[t]; ok {
		return dup
	}
	dup := &Thread{}
	c.threads[t] = dup
	dup.TID = t.TID
	dup.proc = c.proc(t.proc)
	dup.regs = t.regs
	dup.pc = t.pc
	dup.state = t.state
	dup.cpu = t.cpu
	dup.dispatches = t.dispatches
	dup.wait = c.queue(t.wait)
	dup.waitReason = t.waitReason
	dup.sigMask = t.sigMask
	dup.pending = t.pending
	dup.sleepDeadline = t.sleepDeadline
	dup.waitPidTarget = t.waitPidTarget
	dup.waitStatusVA = t.waitStatusVA
	dup.vforkChild = c.proc(t.vforkChild)
	return dup
}

func (c *cloneCtx) queue(q *WaitQueue) *WaitQueue {
	if q == nil {
		return nil
	}
	if dup, ok := c.queues[q]; ok {
		return dup
	}
	dup := &WaitQueue{name: q.name}
	c.queues[q] = dup
	if q.ts != nil {
		dup.ts = make([]*Thread, len(q.ts))
		for i, t := range q.ts {
			dup.ts[i] = c.thread(t)
		}
	}
	return dup
}
