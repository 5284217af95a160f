package kernel

import (
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/cost"
	"repro/internal/errno"
	"repro/internal/sig"
	"repro/internal/vfs"
)

// Checkpoint/restore: CRIU in miniature. CheckpointProcess serializes
// ONE process — address space via the page-table walk, fd table,
// thread states, pending signals — into a host-side ProcImage, and
// RestoreProcess reconstructs it on another (or the same) machine.
// Extraction mirrors the cloneCtx machinery in clone.go, scoped to a
// single process: where cloneCtx memoises live objects pointer-to-
// pointer, the image memoises them by name — descriptors sharing one
// open file description keep one DescImage (dup sharing survives the
// trip), file-backed VMAs serialize their backing as a path re-resolved
// on the target, and threads travel as register files.
//
// What refuses to checkpoint is the paper's point measured in a new
// setting: exactly the state fork() entangles a process with is the
// state that cannot be serialized one-sided. A vfork child borrowing
// its parent's address space, a parent suspended mid-vfork, a pipe
// whose peer end stays behind, an unreaped child — all are
// CheckpointError refusals, while a spawned, self-contained process
// moves freely.
//
// Blocked threads restore as runnable: blocking syscalls never advance
// the PC (see errBlocked), so the restored thread re-executes the SYS
// instruction and re-blocks on the *target* machine's queues — a
// futex waiter waits on the target's futex word, a nanosleep resumes
// with its remaining time (rebased via CapturedAt). Semantically each
// is one spurious wakeup.

// CheckpointError is a typed refusal: the process holds state that
// cannot be serialized from one machine and rebuilt on another.
type CheckpointError struct {
	Pid    PID
	Reason string
}

func (e *CheckpointError) Error() string {
	return fmt.Sprintf("checkpoint pid%d: %s", e.Pid, e.Reason)
}

// ProcImage is one process serialized to the host side. It references
// nothing in the source kernel — every cross-object link became an
// index or a path — so it can outlive the source machine and restore
// into any kernel whose filesystem carries the named files.
type ProcImage struct {
	Name string
	Cwd  string

	VMAs         []VMAImage
	Pages        []addrspace.PageRecord
	BrkBase, Brk uint64

	Descs []DescImage
	FDs   []FDImage

	Threads []ThreadImage
	Sigs    *sig.Table
	Pending sig.Set
	NextTID int

	// CapturedAt is the source machine's virtual time at capture;
	// restore rebases absolute deadlines by (target now − CapturedAt).
	CapturedAt cost.Ticks
}

// PageBytes reports the image's page payload in bytes (what a
// migration round ships over the wire).
func (img *ProcImage) PageBytes() uint64 {
	var n uint64
	for i := range img.Pages {
		n += img.Pages[i].Pages()
	}
	return n << 12
}

// VMAImage is one serialized VMA. BackingPath names the backing file
// ("" = anonymous); the target resolves it in its own filesystem.
type VMAImage struct {
	Start, End  uint64
	Prot        addrspace.Prot
	Kind        addrspace.Kind
	Name        string
	Huge        bool
	BackingPath string
	BackingOff  uint64
}

// DescImage is one open file description (the dup-shared object).
type DescImage struct {
	Path  string
	Flags vfs.OpenFlags
	Pos   uint64
}

// FDImage is one descriptor-table slot pointing at a description by
// index — two fds dup'd onto one description restore dup'd.
type FDImage struct {
	FD      int
	Desc    int
	Cloexec bool
}

// ThreadImage is one serialized thread. Runnable covers blocked
// threads too (restartable-syscall retry); parked threads restore
// parked.
type ThreadImage struct {
	TID      int
	Regs     [16]uint64
	PC       uint64
	Runnable bool
	SigMask  sig.Set
	Pending  sig.Set
	// SleepLeft is the remaining nanosleep time at capture (0 = not
	// sleeping); restore re-arms the deadline relative to target time.
	SleepLeft cost.Ticks
}

// CheckpointOpts steers a capture.
type CheckpointOpts struct {
	// DirtyOnly captures only pages dirtied since the last re-armed
	// capture — a live-migration pre-copy round.
	DirtyOnly bool
	// Rearm downgrades captured pages to read-only-clean so the next
	// write re-faults and re-dirties: arms the next round's harvest.
	Rearm bool
	// PageBuf is storage for the image's page records: the capture
	// fills it from the start, so a caller that checkpoints in a loop
	// and passes its last image's Pages back allocates no record
	// slice once the storage has grown. The image's Pages then alias
	// it, so that image must be done with first. nil gives the image
	// records of its own.
	PageBuf []addrspace.PageRecord
}

// CheckpointProcess serializes p into a ProcImage, priced in virtual
// time like the real work it models: one page copy per captured page
// (in CapturePages), a VMA-record and fd-record charge per entry, and
// an image header. The source process keeps running afterwards —
// checkpointing is a read (unless opts.Rearm write-protects the
// captured pages for dirty tracking).
func (k *Kernel) CheckpointProcess(p *Process, opts CheckpointOpts) (*ProcImage, error) {
	if p == nil || p.state != ProcAlive {
		return nil, &CheckpointError{Reason: "process is not alive"}
	}
	if !p.spaceOwned {
		return nil, &CheckpointError{Pid: p.Pid, Reason: "address space is borrowed (mid-vfork child)"}
	}
	if p.vforkWaiter != nil {
		return nil, &CheckpointError{Pid: p.Pid, Reason: "a vfork parent is suspended on this process"}
	}
	if len(p.children) > 0 {
		return nil, &CheckpointError{Pid: p.Pid, Reason: fmt.Sprintf("process has %d children (fork ties them to this machine)", len(p.children))}
	}
	for _, t := range p.threads {
		if t.state == TExited {
			continue
		}
		if t.vforkChild != nil {
			return nil, &CheckpointError{Pid: p.Pid, Reason: fmt.Sprintf("thread %d is suspended mid-vfork", t.TID)}
		}
		if t.state == TBlocked && t.waitReason == "waitpid" {
			return nil, &CheckpointError{Pid: p.Pid, Reason: fmt.Sprintf("thread %d is blocked in waitpid", t.TID)}
		}
	}

	cwd := k.fs.PathOf(p.cwd)
	if cwd == "?" {
		return nil, &CheckpointError{Pid: p.Pid, Reason: "cwd is detached from the filesystem"}
	}
	img := &ProcImage{Name: p.Name, Cwd: cwd}

	for _, v := range p.space.VMAs() {
		if v.Shared {
			return nil, &CheckpointError{Pid: p.Pid, Reason: fmt.Sprintf("MAP_SHARED region %q cannot migrate one-sided", v.Name)}
		}
		vi := VMAImage{
			Start: v.Start, End: v.End, Prot: v.Prot, Kind: v.Kind,
			Name: v.Name, Huge: v.Huge, BackingOff: v.BackingOff,
		}
		if v.Backing != nil {
			ino, ok := v.Backing.(*vfs.Inode)
			if !ok {
				return nil, &CheckpointError{Pid: p.Pid, Reason: fmt.Sprintf("region %q has a non-file backing", v.Name)}
			}
			path := k.fs.PathOf(ino)
			if path == "?" {
				return nil, &CheckpointError{Pid: p.Pid, Reason: fmt.Sprintf("region %q is backed by an unlinked file", v.Name)}
			}
			vi.BackingPath = path
		}
		img.VMAs = append(img.VMAs, vi)
		k.meter.Charge(k.meter.Model.VMAClone)
	}
	img.BrkBase = p.space.BrkBase()
	img.Brk = p.space.Brk()

	descIdx := map[*vfs.OpenFile]int{}
	for fd := 0; fd <= p.fds.MaxFD(); fd++ {
		of, err := p.fds.Get(fd)
		if err != nil {
			continue
		}
		if of.Pipe() != nil {
			return nil, &CheckpointError{Pid: p.Pid, Reason: fmt.Sprintf("fd %d is a pipe end (its peer stays behind)", fd)}
		}
		di, ok := descIdx[of]
		if !ok {
			path := k.fs.PathOf(of.Inode())
			if path == "?" {
				return nil, &CheckpointError{Pid: p.Pid, Reason: fmt.Sprintf("fd %d is open on an unlinked file", fd)}
			}
			di = len(img.Descs)
			descIdx[of] = di
			img.Descs = append(img.Descs, DescImage{Path: path, Flags: of.Flags(), Pos: of.Pos()})
		}
		cloexec, _ := p.fds.Cloexec(fd)
		img.FDs = append(img.FDs, FDImage{FD: fd, Desc: di, Cloexec: cloexec})
		k.meter.Charge(k.meter.Model.FDClone)
	}

	now := k.meter.Now()
	for _, t := range p.threads {
		if t.state == TExited {
			continue
		}
		ti := ThreadImage{
			TID: t.TID, Regs: t.regs, PC: t.pc,
			SigMask: t.sigMask, Pending: t.pending,
			Runnable: t.state != TParked,
		}
		if t.sleepDeadline > now {
			ti.SleepLeft = t.sleepDeadline - now
		}
		img.Threads = append(img.Threads, ti)
	}
	img.NextTID = p.nextTID
	img.Sigs = p.sigs.Clone()
	img.Pending = p.pending
	k.meter.Charge(k.meter.Model.ImageHeader + k.meter.Model.SigClone)

	img.Pages = p.space.CapturePages(opts.PageBuf[:0], opts.DirtyOnly, opts.Rearm)
	img.CapturedAt = k.meter.Now()
	return img, nil
}

// RestoreProcess rebuilds img as a new process on k — the receiving
// half of a migration. Name-references resolve against k's own
// filesystem (executable images and open files must exist there);
// pages install into freshly allocated frames in one pass, in the
// order img.Pages gives them, which must be the strictly ascending va
// order CapturePages emits: a record at or below its predecessor's va
// (out of order, or a duplicate) fails with EINVAL and unwinds like any
// other corrupt record. Later pre-copy rounds are not merged into an
// image; they go through Space.InstallPage. Threads come back with
// their exact TIDs, parked ones parked and everything else runnable.
// The restored process is parentless (like a synthetic root) and
// charged the natural construction costs.
func (k *Kernel) RestoreProcess(img *ProcImage) (*Process, error) {
	// Resolve every name before touching kernel state, so most
	// failures need no unwind at all.
	cwd, err := k.fs.Resolve(k.fs.Root(), img.Cwd)
	if err != nil {
		return nil, fmt.Errorf("restore %q: cwd %q: %w", img.Name, img.Cwd, err)
	}
	if cwd.Type != vfs.TypeDir {
		return nil, fmt.Errorf("restore %q: cwd %q: %w", img.Name, img.Cwd, errno.ENOTDIR)
	}
	backings := make([]*vfs.Inode, len(img.VMAs))
	for i, vi := range img.VMAs {
		if vi.BackingPath == "" {
			continue
		}
		ino, err := k.fs.Resolve(k.fs.Root(), vi.BackingPath)
		if err != nil {
			return nil, fmt.Errorf("restore %q: region %q backing %q: %w", img.Name, vi.Name, vi.BackingPath, err)
		}
		backings[i] = ino
	}
	descInos := make([]*vfs.Inode, len(img.Descs))
	for i, d := range img.Descs {
		ino, err := k.fs.Resolve(k.fs.Root(), d.Path)
		if err != nil {
			return nil, fmt.Errorf("restore %q: file %q: %w", img.Name, d.Path, err)
		}
		descInos[i] = ino
	}
	for _, fi := range img.FDs {
		if fi.Desc < 0 || fi.Desc >= len(img.Descs) {
			return nil, fmt.Errorf("restore %q: fd %d: description %d of %d: %w", img.Name, fi.FD, fi.Desc, len(img.Descs), errno.EINVAL)
		}
	}

	sigs := &sig.Table{}
	if img.Sigs != nil {
		sigs = img.Sigs.Clone()
	}
	p := k.newProcess(img.Name, nil, sigs)
	p.cwd = cwd
	p.fds = vfs.NewFDTable()
	p.space = k.newSpace()
	p.spaceOwned = true
	fail := func(err error) (*Process, error) {
		p.fds.CloseAll()
		if p.space != nil {
			p.space.Destroy()
			p.space = nil
		}
		delete(k.procs, p.Pid)
		return nil, err
	}

	for i, vi := range img.VMAs {
		opts := addrspace.MapOpts{
			Kind: vi.Kind, Name: vi.Name, Huge: vi.Huge,
			BackingOff: vi.BackingOff,
		}
		if backings[i] != nil {
			opts.Backing = backings[i]
		}
		if _, err := p.space.Map(vi.Start, vi.End-vi.Start, vi.Prot, opts); err != nil {
			return fail(fmt.Errorf("restore %q: map %q: %w", img.Name, vi.Name, err))
		}
	}
	p.space.RestoreBrk(img.BrkBase, img.Brk)

	// Make room in the frame table for every base page at once; growing
	// it an allocation at a time allocates several times its size.
	var basePages uint64
	for i := range img.Pages {
		if img.Pages[i].Pages() == 1 {
			basePages++
		}
	}
	k.phys.GrowFrames(basePages)
	for i := range img.Pages {
		r := &img.Pages[i]
		if i > 0 && r.VA <= img.Pages[i-1].VA {
			return fail(fmt.Errorf("restore %q: page %#x after page %#x: %w", img.Name, r.VA, img.Pages[i-1].VA, errno.EINVAL))
		}
		if err := p.space.InstallPage(*r); err != nil {
			return fail(fmt.Errorf("restore %q: page %#x: %w", img.Name, r.VA, err))
		}
	}

	descs := make([]*vfs.OpenFile, len(img.Descs))
	used := make([]bool, len(img.Descs))
	for i, d := range img.Descs {
		of := vfs.NewOpenFile(descInos[i], d.Flags)
		if d.Pos != 0 && descInos[i].Type == vfs.TypeFile {
			of.Seek(int64(d.Pos), vfs.SeekSet)
		}
		descs[i] = of
	}
	for _, fi := range img.FDs {
		of := descs[fi.Desc]
		if used[fi.Desc] {
			of = of.Retain()
		}
		if err := p.fds.InstallAt(of, fi.Cloexec, fi.FD); err != nil {
			if used[fi.Desc] {
				of.Release()
			}
			return fail(fmt.Errorf("restore %q: fd %d: %w", img.Name, fi.FD, err))
		}
		used[fi.Desc] = true
		k.meter.Charge(k.meter.Model.FDClone)
	}
	for i, of := range descs {
		if !used[i] {
			of.Release() // description with no surviving fd (defensive)
		}
	}

	p.pending = img.Pending
	k.meter.Charge(k.meter.Model.SigClone)

	now := k.meter.Now()
	for _, ti := range img.Threads {
		p.nextTID = ti.TID
		t := k.newThread(p, TParked)
		t.regs = ti.Regs
		t.pc = ti.PC
		t.sigMask = ti.SigMask
		t.pending = ti.Pending
		if ti.SleepLeft > 0 {
			t.sleepDeadline = now + ti.SleepLeft
		}
		if ti.Runnable {
			t.state = TRunnable
			k.placeNewThread(t)
			k.enqueue(t)
		}
	}
	p.nextTID = img.NextTID
	return p, nil
}
