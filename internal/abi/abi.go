// Package abi pins down the contract between the simulated kernel and
// its userland: syscall numbers, flag encodings, and the in-memory
// layouts of the posix_spawn control blocks. Both the kernel's
// dispatcher and the assembler's builtin constant table import this
// package, so a program written in the assembly dialect and the kernel
// can never drift apart.
package abi

// Syscall numbers.
const (
	SysExit         = 1  // exit(status)
	SysWrite        = 2  // write(fd, buf, len) -> n
	SysRead         = 3  // read(fd, buf, len) -> n
	SysOpen         = 4  // open(path, flags) -> fd
	SysClose        = 5  // close(fd)
	SysDup          = 6  // dup(fd) -> fd
	SysDup2         = 7  // dup2(old, new) -> new
	SysPipe         = 8  // pipe(addr of [2]u64) -> 0
	SysFork         = 9  // fork() -> pid | 0
	SysVfork        = 10 // vfork() -> pid | 0
	SysExec         = 11 // exec(path, argv) (no return on success)
	SysSpawn        = 12 // spawn(path, argv, file_actions, attr) -> pid
	SysWaitPid      = 13 // waitpid(pid, statusAddr, flags) -> pid
	SysGetPid       = 14 // getpid() -> pid
	SysGetPPid      = 15 // getppid() -> pid
	SysBrk          = 16 // brk(addr) -> new break
	SysMmap         = 17 // mmap(addr, len, prot, flags) -> addr
	SysMunmap       = 18 // munmap(addr, len)
	SysTouch        = 19 // touch(addr, len, write): fault pages in
	SysKill         = 20 // kill(pid, sig)
	SysSigaction    = 21 // sigaction(sig, kind, handler)
	SysSigprocmask  = 22 // sigprocmask(how, set) -> old set
	SysSigreturn    = 23 // return from signal handler
	SysThreadCreate = 24 // thread_create(entry, arg, stackTop) -> tid
	SysThreadExit   = 25 // thread_exit()
	SysFutexWait    = 26 // futex_wait(addr, expected)
	SysFutexWake    = 27 // futex_wake(addr, count) -> woken
	SysYield        = 28 // yield()
	SysNanosleep    = 29 // nanosleep(ticks)
	SysClock        = 30 // clock() -> virtual ns
	SysSeek         = 31 // seek(fd, off, whence) -> pos
	SysGetTid       = 32 // gettid() -> tid
	SysSetCloexec   = 33 // set_cloexec(fd, on)
	SysStat         = 34 // stat(path, bufAddr) -> 0 (type,size)
	SysMkdir        = 35 // mkdir(path)
	SysUnlink       = 36 // unlink(path)
	SysChdir        = 37 // chdir(path)
	SysReadDir      = 38 // readdir(path, buf, len) -> bytes (names NUL-separated)
	SysProcCount    = 39 // proc_count() -> live processes (diagnostics)
	SysGetRSS       = 40 // get_rss() -> resident bytes of caller
	SysMprotect     = 41 // mprotect(addr, len, prot)
	SysNetSend      = 42 // net_send(dst, tag, len) -> 0 (enqueue one NIC frame)
	SysNetRecv      = 43 // net_recv() -> src<<32|tag (blocks until a frame arrives)
)

// Exit-status encoding, waitpid's statusAddr word:
// bits 0..7  = termination signal (0 if exited normally)
// bits 8..15 = exit code
const (
	StatusSignalMask = 0xff
	StatusCodeShift  = 8
)

// EncodeStatus packs an exit code / terminating signal pair.
func EncodeStatus(code int, signal int) uint64 {
	return uint64(code)<<StatusCodeShift | uint64(signal)&StatusSignalMask
}

// StatusExitCode extracts the exit code.
func StatusExitCode(status uint64) int { return int(status>>StatusCodeShift) & 0xff }

// StatusSignal extracts the terminating signal (0 = normal exit).
func StatusSignal(status uint64) int { return int(status & StatusSignalMask) }

// open(2) flag values (match vfs.OpenFlags).
const (
	ORdOnly  = 0x0
	OWrOnly  = 0x1
	ORdWr    = 0x2
	OCreate  = 0x40
	OTrunc   = 0x200
	OAppend  = 0x400
	OCloexec = 0x80000
)

// mmap prot bits.
const (
	ProtRead  = 1
	ProtWrite = 2
	ProtExec  = 4
)

// mmap flags.
const (
	MapShared = 1
	MapHuge   = 2
)

// waitpid flags.
const (
	WNoHang = 1
)

// sigaction kinds.
const (
	SigActDefault = 0
	SigActIgnore  = 1
	SigActHandler = 2
)

// sigprocmask how.
const (
	SigBlock   = 0
	SigUnblock = 1
	SigSetMask = 2
)

// seek whence.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// posix_spawn file-action records: an array of 4×u64 records in user
// memory, terminated by FAEnd.
//
//	{FADup2,  oldfd, newfd, 0}
//	{FAClose, fd,    0,     0}
//	{FAOpen,  fd,    pathPtr, flags}
//	{FAEnd}
//	{FAChdir, pathPtr, 0, 0}
const (
	FAEnd   = 0
	FADup2  = 1
	FAClose = 2
	FAOpen  = 3
	FAChdir = 4

	// FARecordSize is the byte size of one record.
	FARecordSize = 32
)

// posix_spawn attribute block: 4×u64 in user memory.
//
//	word 0: flags (SpawnSetSigDef | SpawnSetSigMask)
//	word 1: sigdefault set
//	word 2: sigmask
//	word 3: reserved
const (
	SpawnSetSigDef  = 1
	SpawnSetSigMask = 2
)

// Stat buffer layout: 2×u64 {type, size}; type values below.
const (
	StatFile = 0
	StatDir  = 1
	StatDev  = 2
)
