package asm

import (
	"repro/internal/abi"
	"repro/internal/sig"
)

// builtinConsts are symbols every program can use without declaring
// them: syscall numbers, flag bits, signal numbers, and the standard
// descriptors. They come straight from internal/abi so the assembler
// and the kernel cannot disagree.
var builtinConsts = map[string]uint64{
	// Standard descriptors.
	"STDIN":  0,
	"STDOUT": 1,
	"STDERR": 2,

	// Syscalls.
	"SYS_EXIT":          abi.SysExit,
	"SYS_WRITE":         abi.SysWrite,
	"SYS_READ":          abi.SysRead,
	"SYS_OPEN":          abi.SysOpen,
	"SYS_CLOSE":         abi.SysClose,
	"SYS_DUP":           abi.SysDup,
	"SYS_DUP2":          abi.SysDup2,
	"SYS_PIPE":          abi.SysPipe,
	"SYS_FORK":          abi.SysFork,
	"SYS_VFORK":         abi.SysVfork,
	"SYS_EXEC":          abi.SysExec,
	"SYS_SPAWN":         abi.SysSpawn,
	"SYS_WAITPID":       abi.SysWaitPid,
	"SYS_GETPID":        abi.SysGetPid,
	"SYS_GETPPID":       abi.SysGetPPid,
	"SYS_BRK":           abi.SysBrk,
	"SYS_MMAP":          abi.SysMmap,
	"SYS_MUNMAP":        abi.SysMunmap,
	"SYS_TOUCH":         abi.SysTouch,
	"SYS_KILL":          abi.SysKill,
	"SYS_SIGACTION":     abi.SysSigaction,
	"SYS_SIGPROCMASK":   abi.SysSigprocmask,
	"SYS_SIGRETURN":     abi.SysSigreturn,
	"SYS_THREAD_CREATE": abi.SysThreadCreate,
	"SYS_THREAD_EXIT":   abi.SysThreadExit,
	"SYS_FUTEX_WAIT":    abi.SysFutexWait,
	"SYS_FUTEX_WAKE":    abi.SysFutexWake,
	"SYS_YIELD":         abi.SysYield,
	"SYS_NANOSLEEP":     abi.SysNanosleep,
	"SYS_CLOCK":         abi.SysClock,
	"SYS_SEEK":          abi.SysSeek,
	"SYS_GETTID":        abi.SysGetTid,
	"SYS_SET_CLOEXEC":   abi.SysSetCloexec,
	"SYS_STAT":          abi.SysStat,
	"SYS_MKDIR":         abi.SysMkdir,
	"SYS_UNLINK":        abi.SysUnlink,
	"SYS_CHDIR":         abi.SysChdir,
	"SYS_READDIR":       abi.SysReadDir,
	"SYS_PROC_COUNT":    abi.SysProcCount,
	"SYS_GET_RSS":       abi.SysGetRSS,
	"SYS_MPROTECT":      abi.SysMprotect,

	// open flags.
	"O_RDONLY":  abi.ORdOnly,
	"O_WRONLY":  abi.OWrOnly,
	"O_RDWR":    abi.ORdWr,
	"O_CREATE":  abi.OCreate,
	"O_TRUNC":   abi.OTrunc,
	"O_APPEND":  abi.OAppend,
	"O_CLOEXEC": abi.OCloexec,

	// mmap.
	"PROT_READ":  abi.ProtRead,
	"PROT_WRITE": abi.ProtWrite,
	"PROT_EXEC":  abi.ProtExec,
	"MAP_SHARED": abi.MapShared,
	"MAP_HUGE":   abi.MapHuge,

	// waitpid.
	"WNOHANG": abi.WNoHang,

	// sigaction / sigprocmask.
	"SIG_DFL":     abi.SigActDefault,
	"SIG_IGN":     abi.SigActIgnore,
	"SIG_HANDLER": abi.SigActHandler,
	"SIG_BLOCK":   abi.SigBlock,
	"SIG_UNBLOCK": abi.SigUnblock,
	"SIG_SETMASK": abi.SigSetMask,

	// Signals.
	"SIGHUP":  uint64(sig.SIGHUP),
	"SIGINT":  uint64(sig.SIGINT),
	"SIGQUIT": uint64(sig.SIGQUIT),
	"SIGILL":  uint64(sig.SIGILL),
	"SIGABRT": uint64(sig.SIGABRT),
	"SIGFPE":  uint64(sig.SIGFPE),
	"SIGKILL": uint64(sig.SIGKILL),
	"SIGUSR1": uint64(sig.SIGUSR1),
	"SIGSEGV": uint64(sig.SIGSEGV),
	"SIGUSR2": uint64(sig.SIGUSR2),
	"SIGPIPE": uint64(sig.SIGPIPE),
	"SIGALRM": uint64(sig.SIGALRM),
	"SIGTERM": uint64(sig.SIGTERM),
	"SIGCHLD": uint64(sig.SIGCHLD),
	"SIGCONT": uint64(sig.SIGCONT),
	"SIGSTOP": uint64(sig.SIGSTOP),

	// posix_spawn file actions and attributes.
	"FA_END":   abi.FAEnd,
	"FA_DUP2":  abi.FADup2,
	"FA_CLOSE": abi.FAClose,
	"FA_OPEN":  abi.FAOpen,
	"FA_CHDIR": abi.FAChdir,

	"SPAWN_SETSIGDEF":  abi.SpawnSetSigDef,
	"SPAWN_SETSIGMASK": abi.SpawnSetSigMask,

	// seek.
	"SEEK_SET": abi.SeekSet,
	"SEEK_CUR": abi.SeekCur,
	"SEEK_END": abi.SeekEnd,

	// stat types.
	"S_FILE": abi.StatFile,
	"S_DIR":  abi.StatDir,
	"S_DEV":  abi.StatDev,

	// Geometry.
	"PAGE_SIZE": 4096,
	"HUGE_SIZE": 2 * 1024 * 1024,
}
