package kernel

import (
	"repro/internal/abi"
	"repro/internal/cost"
	"repro/internal/errno"
	"repro/internal/fault"
	"repro/internal/sig"
	"repro/internal/vfs"
)

// FileAction is one posix_spawn file action, applied in the child in
// order before "exec".
type FileAction struct {
	Op    int // abi.FADup2, abi.FAClose, abi.FAOpen
	FD    int
	NewFD int    // FADup2 target
	Path  string // FAOpen
	Flags vfs.OpenFlags
}

// SpawnAttr is the posix_spawn attribute block.
type SpawnAttr struct {
	Flags      uint64 // abi.SpawnSetSigDef | abi.SpawnSetSigMask
	SigDefault sig.Set
	SigMask    sig.Set
}

// doSpawn creates a new process running path's image without ever
// duplicating the parent: descriptors are inherited by reference
// (minus close-on-exec, plus file actions), signal dispositions follow
// the exec rules, and the address space is built fresh from the image.
// Its cost is independent of the parent's address-space size — the
// other line in Figure 1.
func (k *Kernel) doSpawn(parent *Process, callerMask sig.Set, path string, argv []string,
	fas []FileAction, attr SpawnAttr, start bool) (*Process, error) {

	ino, hdr, err := k.resolveExecutable(parent.cwd, path)
	if err != nil {
		return nil, err
	}

	// The spawn path's fixed overhead (libc child setup, dynamic
	// linking of the minimal runtime): the reason posix_spawn's
	// constant is higher than a tiny fork's.
	k.meter.Charge(k.meter.Model.SpawnSetup)

	child := k.newProcess(path, parent, parent.sigs.Clone())
	fail := func(err error) (*Process, error) {
		if child.fds != nil {
			child.fds.CloseAll()
		}
		k.abortFork(child)
		return nil, err
	}

	// Descriptors: inherit by reference, then file actions (in
	// order, with FAChdir affecting subsequent relative FAOpens,
	// matching posix_spawn_file_actions_addchdir), then
	// close-on-exec.
	if e := k.faults.Fail(fault.PointFDClone, uint64(parent.fds.OpenCount())); e != errno.OK {
		return fail(e)
	}
	var nfds int
	child.fds, nfds = parent.fds.Clone()
	k.meter.Charge(cost.Ticks(nfds) * k.meter.Model.FDClone)
	for _, fa := range fas {
		switch fa.Op {
		case abi.FADup2:
			if _, err := child.fds.Dup2(fa.FD, fa.NewFD); err != nil {
				return fail(err)
			}
		case abi.FAClose:
			if err := child.fds.Close(fa.FD); err != nil {
				return fail(err)
			}
		case abi.FAOpen:
			of, err := k.openPath(child.cwd, fa.Path, fa.Flags)
			if err != nil {
				return fail(err)
			}
			if err := child.fds.InstallAt(of, fa.Flags&vfs.OCloexec != 0, fa.FD); err != nil {
				of.Release()
				return fail(err)
			}
		case abi.FAChdir:
			dir, err := k.fs.Resolve(child.cwd, fa.Path)
			if err != nil {
				return fail(err)
			}
			if dir.Type != vfs.TypeDir {
				return fail(errno.ENOTDIR)
			}
			child.cwd = dir
		default:
			return fail(errno.EINVAL)
		}
	}
	child.fds.DoCloexec()

	// Signal dispositions: as if fork+exec (newProcess took the copy),
	// then the explicit attribute resets.
	k.meter.Charge(k.meter.Model.SigClone)
	child.sigs.ResetForExec()
	if attr.Flags&abi.SpawnSetSigDef != 0 {
		child.sigs.ResetAll(attr.SigDefault)
	}

	space, ctx, err := k.buildSpace(ino, hdr, argv)
	if err != nil {
		return fail(err)
	}
	child.space = space
	child.spaceOwned = true

	if e := k.faults.Fail(fault.PointThreadCreate, 1); e != errno.OK {
		child.space.Destroy()
		child.space = nil
		child.spaceOwned = false
		return fail(e)
	}

	state := TParked
	if start {
		state = TRunnable
	}
	ct := k.newThread(child, state)
	ct.regs = ctx.regs
	ct.pc = ctx.pc
	ct.sigMask = callerMask
	if attr.Flags&abi.SpawnSetSigMask != 0 {
		ct.sigMask = attr.SigMask.Del(sig.SIGKILL).Del(sig.SIGSTOP)
	}
	if len(argv) > 0 {
		child.Name = argv[0]
	}
	return child, nil
}

// Spawn is the Go-harness posix_spawn: the child starts runnable if
// start is true, parked otherwise.
func (k *Kernel) Spawn(parent *Process, path string, argv []string, fas []FileAction, attr SpawnAttr, start bool) (*Process, error) {
	var mask sig.Set
	if t := parent.MainThread(); t != nil {
		mask = t.sigMask
	}
	return k.doSpawn(parent, mask, path, argv, fas, attr, start)
}

// openPath opens path relative to cwd with POSIX open(2) semantics.
func (k *Kernel) openPath(cwd *vfs.Inode, path string, flags vfs.OpenFlags) (*vfs.OpenFile, error) {
	var ino *vfs.Inode
	var err error
	if flags&vfs.OCreate != 0 {
		ino, err = k.fs.Create(cwd, path)
	} else {
		ino, err = k.fs.Resolve(cwd, path)
		if err == nil && ino.Type == vfs.TypeFile && flags&vfs.OTrunc != 0 {
			ino.SetData(nil)
		}
	}
	if err != nil {
		return nil, err
	}
	if ino.Type == vfs.TypeDir {
		return nil, errno.EISDIR
	}
	return vfs.NewOpenFile(ino, flags), nil
}

// BootInit creates pid 1 from an image with stdin/stdout/stderr wired
// to /dev/console, and starts it.
func (k *Kernel) BootInit(path string, argv []string) (*Process, error) {
	if k.procs[1] != nil {
		return nil, errno.EEXIST
	}
	ino, hdr, err := k.resolveExecutable(nil, path)
	if err != nil {
		return nil, err
	}
	p := k.newProcess("init", nil, &sig.Table{})
	space, ctx, err := k.buildSpace(ino, hdr, argv)
	if err != nil {
		k.abortFork(p)
		return nil, err
	}
	p.space = space
	p.spaceOwned = true
	p.fds = vfs.NewFDTable()
	console, err := k.fs.Resolve(nil, "/dev/console")
	if err != nil {
		panic("kernel: /dev/console missing")
	}
	for fd := 0; fd < 3; fd++ {
		flags := vfs.ORdOnly
		if fd > 0 {
			flags = vfs.OWrOnly
		}
		if _, err := p.fds.Install(vfs.NewOpenFile(console, flags), false, fd); err != nil {
			panic(err)
		}
	}
	t := k.newThread(p, TRunnable)
	t.regs = ctx.regs
	t.pc = ctx.pc
	return p, nil
}

// NewSynthetic creates a process shell driven directly from Go: empty
// address space, empty descriptor table, one parked thread. The
// measurement harness uses these to build parents of arbitrary sizes
// without running VM code.
func (k *Kernel) NewSynthetic(name string, parent *Process) *Process {
	p := k.newProcess(name, parent, &sig.Table{})
	p.space = k.newSpace()
	p.spaceOwned = true
	p.fds = vfs.NewFDTable()
	k.newThread(p, TParked)
	return p
}
