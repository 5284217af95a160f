package vfs

import (
	"fmt"

	"repro/internal/errno"
)

// OpenFlags mirror the POSIX open(2) flags the simulator supports.
type OpenFlags uint32

// Open flags.
const (
	ORdOnly    OpenFlags = 0x0
	OWrOnly    OpenFlags = 0x1
	ORdWr      OpenFlags = 0x2
	accessMask OpenFlags = 0x3

	OCreate  OpenFlags = 0x40
	OTrunc   OpenFlags = 0x200
	OAppend  OpenFlags = 0x400
	OCloexec OpenFlags = 0x80000
)

func (f OpenFlags) readable() bool { return f&accessMask != OWrOnly }
func (f OpenFlags) writable() bool { return f&accessMask != ORdOnly }

// ErrWouldBlock is the sentinel a pipe operation returns when it must
// wait; the kernel's syscall layer blocks the calling thread and
// retries. It is distinct from errno.EAGAIN so that a future
// O_NONBLOCK cannot be confused with the internal sentinel.
var ErrWouldBlock = fmt.Errorf("vfs: operation would block")

// OpenFile is an open file description — the object POSIX descriptors
// point at. It is shared by dup() and across fork(), which is why the
// offset lives here and not in the FD table.
type OpenFile struct {
	ino   *Inode
	pipe  *Pipe
	pipeW bool // this description is the pipe's write end
	flags OpenFlags
	pos   uint64
	refs  int
}

// NewOpenFile opens ino with flags (the FS layer has already resolved
// creation/truncation).
func NewOpenFile(ino *Inode, flags OpenFlags) *OpenFile {
	return &OpenFile{ino: ino, flags: flags, refs: 1}
}

// Inode returns the description's inode (nil for pipes).
func (of *OpenFile) Inode() *Inode { return of.ino }

// Pipe returns the pipe this description points at, or nil.
func (of *OpenFile) Pipe() *Pipe { return of.pipe }

// Flags returns the open flags.
func (of *OpenFile) Flags() OpenFlags { return of.flags }

// Pos returns the file offset (shared across dup/fork).
func (of *OpenFile) Pos() uint64 { return of.pos }

// Refs reports the descriptor references held on this description.
func (of *OpenFile) Refs() int { return of.refs }

// Retain adds a descriptor reference (dup, fork, spawn inheritance).
func (of *OpenFile) Retain() *OpenFile {
	of.refs++
	return of
}

// Release drops a reference; the last release closes pipe ends.
func (of *OpenFile) Release() {
	of.refs--
	if of.refs > 0 {
		return
	}
	if of.refs < 0 {
		panic("vfs: over-release of open file")
	}
	if of.pipe != nil {
		if of.pipeW {
			of.pipe.writers--
		} else {
			of.pipe.readers--
		}
	}
}

// Read transfers up to len(buf) bytes from the description, advancing
// the shared offset. Pipes return ErrWouldBlock when empty but still
// writable.
func (of *OpenFile) Read(buf []byte) (int, error) {
	if !of.flags.readable() {
		return 0, errno.EBADF
	}
	if of.pipe != nil {
		return of.pipe.read(buf)
	}
	switch of.ino.Type {
	case TypeDevice:
		return of.ino.dev.ReadDev(buf)
	case TypeDir:
		return 0, errno.EISDIR
	}
	if of.pos >= uint64(len(of.ino.data)) {
		return 0, nil // EOF
	}
	n := copy(buf, of.ino.data[of.pos:])
	of.pos += uint64(n)
	return n, nil
}

// Write transfers data, advancing the shared offset. Pipe writes to a
// full pipe return ErrWouldBlock; writes with no readers return EPIPE
// (the kernel also raises SIGPIPE).
func (of *OpenFile) Write(data []byte) (int, error) {
	if !of.flags.writable() {
		return 0, errno.EBADF
	}
	if of.pipe != nil {
		return of.pipe.write(data)
	}
	switch of.ino.Type {
	case TypeDevice:
		return of.ino.dev.WriteDev(data)
	case TypeDir:
		return 0, errno.EISDIR
	}
	if of.flags&OAppend != 0 {
		of.pos = uint64(len(of.ino.data))
	}
	end := of.pos + uint64(len(data))
	if end > uint64(len(of.ino.data)) {
		nd := make([]byte, end)
		copy(nd, of.ino.data)
		of.ino.data = nd
		of.ino.shared = false
	} else if of.ino.shared {
		// First in-place write to a template-shared file: copy the
		// bytes out so the template (and sibling clones) keep theirs.
		of.ino.data = append([]byte(nil), of.ino.data...)
		of.ino.shared = false
	}
	copy(of.ino.data[of.pos:], data)
	of.pos = end
	return len(data), nil
}

// Seek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Seek repositions the shared offset.
func (of *OpenFile) Seek(off int64, whence int) (int64, error) {
	if of.pipe != nil || (of.ino != nil && of.ino.Type == TypeDevice) {
		return 0, errno.ESPIPE
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = int64(of.pos)
	case SeekEnd:
		base = int64(len(of.ino.data))
	default:
		return 0, errno.EINVAL
	}
	np := base + off
	if np < 0 {
		return 0, errno.EINVAL
	}
	of.pos = uint64(np)
	return np, nil
}

// PipeCapacity is the simulated pipe buffer size (Linux default 64 KiB).
const PipeCapacity = 64 * 1024

// Pipe is a unidirectional byte channel. The kernel attaches wait
// queues to ReadQ/WriteQ; the VFS layer only reports would-block.
type Pipe struct {
	buf     []byte // ring storage
	start   int
	length  int
	readers int
	writers int

	// ReadQ and WriteQ are kernel-owned wait queues (opaque here to
	// keep the dependency direction vfs → kernel broken).
	ReadQ, WriteQ any
}

// NewPipe creates a pipe and its two descriptions.
func NewPipe() (r, w *OpenFile) {
	p := &Pipe{buf: make([]byte, PipeCapacity), readers: 1, writers: 1}
	r = &OpenFile{pipe: p, flags: ORdOnly, refs: 1}
	w = &OpenFile{pipe: p, pipeW: true, flags: OWrOnly, refs: 1}
	return r, w
}

// Len reports the bytes buffered in the pipe.
func (p *Pipe) Len() int { return p.length }

func (p *Pipe) read(buf []byte) (int, error) {
	if p.length == 0 {
		if p.writers == 0 {
			return 0, nil // EOF
		}
		return 0, ErrWouldBlock
	}
	n := len(buf)
	if n > p.length {
		n = p.length
	}
	for i := 0; i < n; i++ {
		buf[i] = p.buf[(p.start+i)%len(p.buf)]
	}
	p.start = (p.start + n) % len(p.buf)
	p.length -= n
	return n, nil
}

func (p *Pipe) write(data []byte) (int, error) {
	if p.readers == 0 {
		return 0, errno.EPIPE
	}
	space := len(p.buf) - p.length
	if space == 0 {
		return 0, ErrWouldBlock
	}
	n := len(data)
	if n > space {
		n = space
	}
	for i := 0; i < n; i++ {
		p.buf[(p.start+p.length+i)%len(p.buf)] = data[i]
	}
	p.length += n
	return n, nil
}

// MaxFDs is the per-process descriptor limit (RLIMIT_NOFILE).
const MaxFDs = 256

type fdSlot struct {
	of      *OpenFile
	cloexec bool
}

// FDTable is a per-process descriptor table.
type FDTable struct {
	slots []fdSlot
}

// NewFDTable returns an empty table.
func NewFDTable() *FDTable { return &FDTable{} }

// Get resolves fd to its description.
func (t *FDTable) Get(fd int) (*OpenFile, error) {
	if fd < 0 || fd >= len(t.slots) || t.slots[fd].of == nil {
		return nil, errno.EBADF
	}
	return t.slots[fd].of, nil
}

// Cloexec reports fd's close-on-exec flag.
func (t *FDTable) Cloexec(fd int) (bool, error) {
	if _, err := t.Get(fd); err != nil {
		return false, err
	}
	return t.slots[fd].cloexec, nil
}

// SetCloexec updates fd's close-on-exec flag.
func (t *FDTable) SetCloexec(fd int, v bool) error {
	if _, err := t.Get(fd); err != nil {
		return err
	}
	t.slots[fd].cloexec = v
	return nil
}

// Install places of at the lowest free descriptor ≥ min and returns
// it. The description's reference is consumed (callers Retain first if
// they keep their own reference).
func (t *FDTable) Install(of *OpenFile, cloexec bool, min int) (int, error) {
	if min < 0 {
		min = 0
	}
	for fd := min; fd < MaxFDs; fd++ {
		for fd >= len(t.slots) {
			t.slots = append(t.slots, fdSlot{})
		}
		if t.slots[fd].of == nil {
			t.slots[fd] = fdSlot{of: of, cloexec: cloexec}
			return fd, nil
		}
	}
	return -1, errno.EMFILE
}

// InstallAt places of exactly at fd, closing whatever was there
// (dup2 semantics).
func (t *FDTable) InstallAt(of *OpenFile, cloexec bool, fd int) error {
	if fd < 0 || fd >= MaxFDs {
		return errno.EBADF
	}
	for fd >= len(t.slots) {
		t.slots = append(t.slots, fdSlot{})
	}
	if old := t.slots[fd].of; old != nil {
		old.Release()
	}
	t.slots[fd] = fdSlot{of: of, cloexec: cloexec}
	return nil
}

// Dup duplicates oldfd to the lowest free descriptor ≥ min. The new
// descriptor shares the description (and thus the offset) and has
// close-on-exec clear, per POSIX.
func (t *FDTable) Dup(oldfd, min int) (int, error) {
	of, err := t.Get(oldfd)
	if err != nil {
		return -1, err
	}
	return t.Install(of.Retain(), false, min)
}

// Dup2 duplicates oldfd onto newfd (closing newfd first if open). As
// in POSIX, dup2(fd, fd) is a no-op returning fd.
func (t *FDTable) Dup2(oldfd, newfd int) (int, error) {
	of, err := t.Get(oldfd)
	if err != nil {
		return -1, err
	}
	if oldfd == newfd {
		return newfd, nil
	}
	if err := t.InstallAt(of.Retain(), false, newfd); err != nil {
		of.Release()
		return -1, err
	}
	return newfd, nil
}

// Close releases fd.
func (t *FDTable) Close(fd int) error {
	of, err := t.Get(fd)
	if err != nil {
		return err
	}
	of.Release()
	t.slots[fd] = fdSlot{}
	return nil
}

// CloseAll releases every descriptor (process exit).
func (t *FDTable) CloseAll() {
	for fd := range t.slots {
		if t.slots[fd].of != nil {
			t.slots[fd].of.Release()
			t.slots[fd] = fdSlot{}
		}
	}
}

// Clone duplicates the whole table for fork: every open slot gains a
// reference, and close-on-exec flags are preserved. costPerFD is
// charged by the caller per slot (the meter lives kernel-side).
func (t *FDTable) Clone() (*FDTable, int) {
	nt := &FDTable{slots: make([]fdSlot, len(t.slots))}
	n := 0
	for fd, s := range t.slots {
		if s.of != nil {
			nt.slots[fd] = fdSlot{of: s.of.Retain(), cloexec: s.cloexec}
			n++
		}
	}
	return nt, n
}

// DoCloexec closes every descriptor marked close-on-exec (the exec
// transition).
func (t *FDTable) DoCloexec() {
	for fd := range t.slots {
		if t.slots[fd].of != nil && t.slots[fd].cloexec {
			t.slots[fd].of.Release()
			t.slots[fd] = fdSlot{}
		}
	}
}

// OpenCount reports the number of open descriptors.
func (t *FDTable) OpenCount() int {
	n := 0
	for _, s := range t.slots {
		if s.of != nil {
			n++
		}
	}
	return n
}

// MaxFD returns the highest open descriptor, or -1.
func (t *FDTable) MaxFD() int {
	for fd := len(t.slots) - 1; fd >= 0; fd-- {
		if t.slots[fd].of != nil {
			return fd
		}
	}
	return -1
}
