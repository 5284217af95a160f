package kernel

import (
	"fmt"

	"repro/internal/abi"
	"repro/internal/addrspace"
	"repro/internal/cost"
	"repro/internal/errno"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/sig"
	"repro/internal/vfs"
)

// Sentinels steering the dispatcher.
var (
	// errBlocked: leave pc untouched; the SYS instruction restarts
	// when the thread is woken.
	errBlocked = fmt.Errorf("kernel: blocked")
	// errNoReturn: the handler already set the thread's context
	// (exec, sigreturn) or destroyed it (exit); touch nothing.
	errNoReturn = fmt.Errorf("kernel: no return")
)

// maxXfer caps a single read/write transfer.
const maxXfer = 1 << 20

// syscall dispatches a SYS instruction for t.
func (k *Kernel) syscall(t *Thread, num uint64) {
	k.meter.Charge(k.meter.Model.SyscallEntry)
	k.meter.Syscalls++
	if k.tracer != nil {
		k.trace(fault.Event{Kind: fault.EvSysEnter, Pid: int(t.proc.Pid), Tid: t.TID, Num: num})
	}

	ret, err := k.sysEnter(t, num)
	switch err {
	case errBlocked:
		// The instruction restarts on wakeup; a fresh enter event
		// will record the retry. No exit event.
		return
	case errNoReturn:
		// exit/exec/sigreturn never return to the call site; the
		// proc/exec lifecycle events tell the story instead.
		return
	case nil:
		t.regs[0] = ret
		if k.tracer != nil {
			k.trace(fault.Event{Kind: fault.EvSysExit, Pid: int(t.proc.Pid), Tid: t.TID, Num: num, Aux: ret})
		}
	default:
		e := errno.Of(err, errno.EINVAL)
		t.regs[0] = uint64(-int64(e))
		if k.tracer != nil {
			k.trace(fault.Event{Kind: fault.EvSysExit, Pid: int(t.proc.Pid), Tid: t.TID, Num: num, Err: e})
		}
	}
	t.pc += isa.InstrSize
	k.meter.Charge(k.meter.Model.SyscallExit)
}

func (k *Kernel) sysEnter(t *Thread, num uint64) (uint64, error) {
	p := t.proc
	a := t.regs // copy of args; writes go through t.regs
	switch num {
	case abi.SysExit:
		k.ExitProcess(p, abi.EncodeStatus(int(a[0])&0xff, 0))
		return 0, errNoReturn

	case abi.SysWrite:
		return k.sysWrite(t, int(a[0]), a[1], a[2])

	case abi.SysRead:
		return k.sysRead(t, int(a[0]), a[1], a[2])

	case abi.SysOpen:
		path, err := readCString(p.space, a[0])
		if err != nil {
			return 0, err
		}
		flags := vfs.OpenFlags(a[1])
		of, err := k.openPath(p.cwd, path, flags)
		if err != nil {
			return 0, err
		}
		fd, err := p.fds.Install(of, flags&vfs.OCloexec != 0, 0)
		if err != nil {
			of.Release()
			return 0, err
		}
		return uint64(fd), nil

	case abi.SysClose:
		return 0, k.closeFD(p, int(a[0]))

	case abi.SysDup:
		fd, err := p.fds.Dup(int(a[0]), 0)
		return uint64(fd), err

	case abi.SysDup2:
		fd, err := p.fds.Dup2(int(a[0]), int(a[1]))
		return uint64(fd), err

	case abi.SysPipe:
		r, w := vfs.NewPipe()
		rfd, err := p.fds.Install(r, false, 0)
		if err != nil {
			r.Release()
			w.Release()
			return 0, err
		}
		wfd, err := p.fds.Install(w, false, 0)
		if err != nil {
			p.fds.Close(rfd)
			w.Release()
			return 0, err
		}
		if err := writeU64(p.space, a[0], uint64(rfd)); err != nil {
			return 0, err
		}
		if err := writeU64(p.space, a[0]+8, uint64(wfd)); err != nil {
			return 0, err
		}
		return 0, nil

	case abi.SysFork, abi.SysVfork:
		mode := k.forkMode()
		if num == abi.SysVfork {
			mode = ForkVfork
		}
		child, err := k.doFork(t, forkOpts{mode: mode, start: true})
		if err != nil {
			return 0, err
		}
		ct := child.MainThread()
		ct.regs[0] = 0
		ct.pc = t.pc + isa.InstrSize
		return uint64(child.Pid), nil

	case abi.SysExec:
		path, err := readCString(p.space, a[0])
		if err != nil {
			return 0, err
		}
		argv, err := readArgv(p.space, a[1])
		if err != nil {
			return 0, err
		}
		if err := k.doExec(t, path, argv); err != nil {
			return 0, err
		}
		return 0, errNoReturn

	case abi.SysSpawn:
		return k.sysSpawn(t, a[0], a[1], a[2], a[3])

	case abi.SysWaitPid:
		pid, status, e, blocked := k.doWaitPid(t, PID(int64(a[0])), a[2])
		if blocked {
			return 0, errBlocked
		}
		if e != errno.OK {
			return 0, e
		}
		if a[1] != 0 && pid != 0 {
			if err := writeU64(p.space, a[1], status); err != nil {
				return 0, err
			}
		}
		return uint64(pid), nil

	case abi.SysGetPid:
		return uint64(p.Pid), nil

	case abi.SysGetPPid:
		if p.parent == nil {
			return 0, nil
		}
		return uint64(p.parent.Pid), nil

	case abi.SysBrk:
		nb, err := p.space.SetBrk(a[0])
		if err != nil && a[0] != 0 {
			return nb, err
		}
		return nb, nil

	case abi.SysMmap:
		return k.sysMmap(t, a[0], a[1], a[2], a[3])

	case abi.SysMunmap:
		return 0, p.space.Unmap(a[0], a[1])

	case abi.SysTouch:
		access := addrspace.AccessRead
		if a[2] != 0 {
			access = addrspace.AccessWrite
		}
		if err := p.space.Touch(a[0], a[1], access); err != nil {
			if err == errno.ENOMEM {
				k.oomKill(p)
				return 0, errNoReturn
			}
			return 0, err
		}
		return 0, nil

	case abi.SysKill:
		target := k.Lookup(PID(int64(a[0])))
		if err := k.SendSignal(target, sig.Signal(a[1])); err != nil {
			return 0, err
		}
		if p.state != ProcAlive || t.state == TExited {
			return 0, errNoReturn // killed ourselves
		}
		return 0, nil

	case abi.SysSigaction:
		s := sig.Signal(a[0])
		var d sig.Disposition
		switch a[1] {
		case abi.SigActDefault:
			d.Kind = sig.ActDefault
		case abi.SigActIgnore:
			d.Kind = sig.ActIgnore
		case abi.SigActHandler:
			d.Kind = sig.ActHandler
			d.Handler = a[2]
		default:
			return 0, errno.EINVAL
		}
		if err := p.sigs.Set(s, d); err != nil {
			return 0, errno.EINVAL
		}
		return 0, nil

	case abi.SysSigprocmask:
		old := uint64(t.sigMask)
		set := sig.Set(a[1]).Del(sig.SIGKILL).Del(sig.SIGSTOP)
		switch a[0] {
		case abi.SigBlock:
			t.sigMask = t.sigMask.Union(set)
		case abi.SigUnblock:
			t.sigMask = t.sigMask.Minus(set)
		case abi.SigSetMask:
			t.sigMask = set
		default:
			return 0, errno.EINVAL
		}
		return old, nil

	case abi.SysSigreturn:
		if err := k.sigReturn(t); err != nil {
			k.threadFault(t, sig.SIGSEGV)
		}
		return 0, errNoReturn

	case abi.SysThreadCreate:
		if e := k.faults.Fail(fault.PointThreadCreate, 1); e != errno.OK {
			return 0, e
		}
		nt := k.newThread(p, TRunnable)
		nt.regs[0] = a[1]
		nt.regs[14] = a[2]
		nt.pc = a[0]
		nt.sigMask = t.sigMask
		return uint64(nt.TID), nil

	case abi.SysThreadExit:
		k.detachThread(t)
		if p.LiveThreads() == 0 {
			k.ExitProcess(p, abi.EncodeStatus(0, 0))
		}
		return 0, errNoReturn

	case abi.SysFutexWait:
		return k.sysFutexWait(t, a[0], a[1])

	case abi.SysFutexWake:
		return k.sysFutexWake(t, a[0], a[1])

	case abi.SysYield:
		t.regs[0] = 0
		t.pc += isa.InstrSize
		k.meter.Charge(k.meter.Model.SyscallExit)
		// Round-robin: back of this CPU's queue.
		t.state = TRunnable
		k.enqueue(t)
		return 0, errNoReturn

	case abi.SysNanosleep:
		if t.sleepDeadline != 0 && t.sleepDeadline <= k.meter.Now() {
			t.sleepDeadline = 0
			return 0, nil
		}
		if t.sleepDeadline == 0 {
			t.sleepDeadline = k.meter.Now() + cost.Ticks(a[0])
		}
		k.block(t, nil, "nanosleep")
		k.sleepers = append(k.sleepers, t)
		return 0, errBlocked

	case abi.SysClock:
		return uint64(k.meter.Now()), nil

	case abi.SysSeek:
		of, err := p.fds.Get(int(a[0]))
		if err != nil {
			return 0, err
		}
		pos, err := of.Seek(int64(a[1]), int(a[2]))
		return uint64(pos), err

	case abi.SysGetTid:
		return uint64(t.TID), nil

	case abi.SysSetCloexec:
		return 0, p.fds.SetCloexec(int(a[0]), a[1] != 0)

	case abi.SysStat:
		path, err := readCString(p.space, a[0])
		if err != nil {
			return 0, err
		}
		ino, err := k.fs.Resolve(p.cwd, path)
		if err != nil {
			return 0, err
		}
		typ := uint64(abi.StatFile)
		switch ino.Type {
		case vfs.TypeDir:
			typ = abi.StatDir
		case vfs.TypeDevice:
			typ = abi.StatDev
		}
		if err := writeU64(p.space, a[1], typ); err != nil {
			return 0, err
		}
		if err := writeU64(p.space, a[1]+8, ino.Size()); err != nil {
			return 0, err
		}
		return 0, nil

	case abi.SysMkdir:
		path, err := readCString(p.space, a[0])
		if err != nil {
			return 0, err
		}
		_, err = k.fs.Mkdir(p.cwd, path)
		return 0, err

	case abi.SysUnlink:
		path, err := readCString(p.space, a[0])
		if err != nil {
			return 0, err
		}
		return 0, k.fs.Remove(p.cwd, path)

	case abi.SysChdir:
		path, err := readCString(p.space, a[0])
		if err != nil {
			return 0, err
		}
		ino, err := k.fs.Resolve(p.cwd, path)
		if err != nil {
			return 0, err
		}
		if ino.Type != vfs.TypeDir {
			return 0, errno.ENOTDIR
		}
		p.cwd = ino
		return 0, nil

	case abi.SysReadDir:
		path, err := readCString(p.space, a[0])
		if err != nil {
			return 0, err
		}
		names, err := k.fs.ReadDir(p.cwd, path)
		if err != nil {
			return 0, err
		}
		var out []byte
		for _, n := range names {
			out = append(out, n...)
			out = append(out, 0)
		}
		if uint64(len(out)) > a[2] {
			return 0, errno.ERANGE
		}
		if err := p.space.WriteBytes(a[1], out); err != nil {
			return 0, err
		}
		return uint64(len(out)), nil

	case abi.SysProcCount:
		return uint64(k.LiveProcessCount()), nil

	case abi.SysGetRSS:
		return p.space.RSS(), nil

	case abi.SysMprotect:
		var pr addrspace.Prot
		if a[2]&abi.ProtRead != 0 {
			pr |= addrspace.Read
		}
		if a[2]&abi.ProtWrite != 0 {
			pr |= addrspace.Write
		}
		if a[2]&abi.ProtExec != 0 {
			pr |= addrspace.Exec
		}
		return 0, p.space.Protect(a[0], a[1], pr)
	}
	return 0, errno.ENOSYS
}

// closeFD closes fd and wakes any pipe peers (close of the last write
// end must unblock readers into EOF).
func (k *Kernel) closeFD(p *Process, fd int) error {
	of, err := p.fds.Get(fd)
	if err != nil {
		return err
	}
	pipe := of.Pipe()
	if err := p.fds.Close(fd); err != nil {
		return err
	}
	if pipe != nil {
		k.wakePipe(pipe)
	}
	return nil
}

// sysWrite implements write(2) with pipe blocking and SIGPIPE.
func (k *Kernel) sysWrite(t *Thread, fd int, bufVA, n uint64) (uint64, error) {
	p := t.proc
	of, err := p.fds.Get(fd)
	if err != nil {
		return 0, err
	}
	if n > maxXfer {
		n = maxXfer
	}
	if n == 0 {
		return 0, nil
	}
	buf := make([]byte, n)
	if err := p.space.ReadBytes(bufVA, buf); err != nil {
		return 0, errno.EFAULT
	}
	wrote, err := of.Write(buf)
	switch {
	case err == vfs.ErrWouldBlock:
		k.block(t, k.pipeWriteQ(of.Pipe()), "pipe-write")
		return 0, errBlocked
	case err == errno.EPIPE:
		t.pending = t.pending.Add(sig.SIGPIPE)
		return 0, errno.EPIPE
	case err != nil:
		return 0, err
	}
	if pipe := of.Pipe(); pipe != nil {
		k.meter.Charge(cost.Ticks(wrote) * k.meter.Model.PipeXferByte)
		k.wakePipe(pipe)
	}
	return uint64(wrote), nil
}

// sysRead implements read(2) with pipe blocking.
func (k *Kernel) sysRead(t *Thread, fd int, bufVA, n uint64) (uint64, error) {
	p := t.proc
	of, err := p.fds.Get(fd)
	if err != nil {
		return 0, err
	}
	if n > maxXfer {
		n = maxXfer
	}
	if n == 0 {
		return 0, nil
	}
	buf := make([]byte, n)
	got, err := of.Read(buf)
	switch {
	case err == vfs.ErrWouldBlock:
		k.block(t, k.pipeReadQ(of.Pipe()), "pipe-read")
		return 0, errBlocked
	case err != nil:
		return 0, err
	}
	if got > 0 {
		if err := p.space.WriteBytes(bufVA, buf[:got]); err != nil {
			return 0, errno.EFAULT
		}
	}
	if pipe := of.Pipe(); pipe != nil {
		k.meter.Charge(cost.Ticks(got) * k.meter.Model.PipeXferByte)
		k.wakePipe(pipe)
	}
	return uint64(got), nil
}

// sysMmap implements the anonymous-mapping subset of mmap(2).
func (k *Kernel) sysMmap(t *Thread, addr, length, prot, flags uint64) (uint64, error) {
	var pr addrspace.Prot
	if prot&abi.ProtRead != 0 {
		pr |= addrspace.Read
	}
	if prot&abi.ProtWrite != 0 {
		pr |= addrspace.Write
	}
	if prot&abi.ProtExec != 0 {
		pr |= addrspace.Exec
	}
	vma, err := t.proc.space.Map(addr, length, pr, addrspace.MapOpts{
		Kind:   addrspace.KindAnon,
		Name:   "mmap",
		Shared: flags&abi.MapShared != 0,
		Huge:   flags&abi.MapHuge != 0,
	})
	if err != nil {
		return 0, err
	}
	return vma.Start, nil
}

// sysSpawn parses the user-memory spawn control blocks and calls
// doSpawn.
func (k *Kernel) sysSpawn(t *Thread, pathVA, argvVA, faVA, attrVA uint64) (uint64, error) {
	p := t.proc
	path, err := readCString(p.space, pathVA)
	if err != nil {
		return 0, err
	}
	argv, err := readArgv(p.space, argvVA)
	if err != nil {
		return 0, err
	}
	var fas []FileAction
	if faVA != 0 {
		for i := 0; i < 64; i++ {
			base := faVA + uint64(i*abi.FARecordSize)
			op, err := readU64(p.space, base)
			if err != nil {
				return 0, err
			}
			if op == abi.FAEnd {
				break
			}
			w1, err := readU64(p.space, base+8)
			if err != nil {
				return 0, err
			}
			w2, err := readU64(p.space, base+16)
			if err != nil {
				return 0, err
			}
			w3, err := readU64(p.space, base+24)
			if err != nil {
				return 0, err
			}
			fa := FileAction{Op: int(op)}
			switch op {
			case abi.FADup2:
				fa.FD, fa.NewFD = int(w1), int(w2)
			case abi.FAClose:
				fa.FD = int(w1)
			case abi.FAOpen:
				fa.FD = int(w1)
				fa.Path, err = readCString(p.space, w2)
				if err != nil {
					return 0, err
				}
				fa.Flags = vfs.OpenFlags(w3)
			case abi.FAChdir:
				fa.Path, err = readCString(p.space, w1)
				if err != nil {
					return 0, err
				}
			default:
				return 0, errno.EINVAL
			}
			fas = append(fas, fa)
		}
	}
	var attr SpawnAttr
	if attrVA != 0 {
		fl, err := readU64(p.space, attrVA)
		if err != nil {
			return 0, err
		}
		sd, err := readU64(p.space, attrVA+8)
		if err != nil {
			return 0, err
		}
		sm, err := readU64(p.space, attrVA+16)
		if err != nil {
			return 0, err
		}
		attr = SpawnAttr{Flags: fl, SigDefault: sig.Set(sd), SigMask: sig.Set(sm)}
	}
	child, err := k.doSpawn(p, t.sigMask, path, argv, fas, attr, true)
	if err != nil {
		return 0, err
	}
	return uint64(child.Pid), nil
}
