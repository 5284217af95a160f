package fault

import (
	"fmt"
	"strings"

	"repro/internal/abi"
	"repro/internal/cost"
	"repro/internal/errno"
)

// EventKind classifies a trace event.
type EventKind uint8

// Trace event kinds.
const (
	// EvSysEnter is a syscall dispatch (Num = syscall number).
	EvSysEnter EventKind = iota
	// EvSysExit is a syscall return (Aux = return value, Err set on
	// failure). Blocking restarts and no-return syscalls (exit, exec,
	// sigreturn) record no exit event.
	EvSysExit
	// EvSched is a scheduler dispatch (Aux = 1 when the thread was
	// stolen from another CPU's queue).
	EvSched
	// EvShootdown is a TLB-shootdown IPI round (Num = remote CPUs
	// interrupted).
	EvShootdown
	// EvFault is an injected fault (Num = Point, Aux = op sequence
	// number, Err = injected errno).
	EvFault
	// EvProcNew is process creation (Num = parent pid, Name set).
	EvProcNew
	// EvProcExit is process termination (Aux = abi-encoded status).
	EvProcExit
	// EvExec is a successful exec image replacement (Name = argv[0]).
	EvExec
)

// Event is one structured trace record. Pid -1 means "no process
// context" (machine-level events like shootdowns and injected faults).
type Event struct {
	Time cost.Ticks
	CPU  int
	Kind EventKind
	Pid  int
	Tid  int
	Num  uint64
	Aux  uint64
	Err  errno.Errno
	Name string
}

// String renders the event as one fixed-layout line (no trailing
// newline). The format is part of the golden-trace contract: purely a
// function of the event, no host state.
func (e Event) String() string {
	who := "-"
	if e.Pid >= 0 {
		who = fmt.Sprintf("pid%d/t%d", e.Pid, e.Tid)
	}
	var what string
	switch e.Kind {
	case EvSysEnter:
		what = "enter " + SyscallName(e.Num)
	case EvSysExit:
		if e.Err != errno.OK {
			what = fmt.Sprintf("exit  %s = %v", SyscallName(e.Num), e.Err)
		} else {
			what = fmt.Sprintf("exit  %s = %d", SyscallName(e.Num), e.Aux)
		}
	case EvSched:
		what = "run"
		if e.Aux != 0 {
			what = "run (stolen)"
		}
	case EvShootdown:
		what = fmt.Sprintf("tlb-shootdown ipis=%d", e.Num)
	case EvFault:
		what = fmt.Sprintf("inject %v seq=%d err=%v", Point(e.Num), e.Aux, e.Err)
	case EvProcNew:
		what = fmt.Sprintf("proc+ %q parent=pid%d", e.Name, e.Num)
	case EvProcExit:
		what = fmt.Sprintf("proc- %q status=%#x", e.Name, e.Aux)
	case EvExec:
		what = fmt.Sprintf("exec  %q", e.Name)
	default:
		what = fmt.Sprintf("event(%d)", int(e.Kind))
	}
	return fmt.Sprintf("%10d cpu%d %-10s %s", uint64(e.Time), e.CPU, who, what)
}

// defaultTraceCap bounds a recorder so a runaway workload cannot eat
// host memory; past it, events are dropped and counted.
const defaultTraceCap = 1 << 18

// Recorder accumulates trace events. A nil recorder is a valid no-op
// sink, so instrumentation sites need no guards.
type Recorder struct {
	events  []Event
	dropped uint64
	cap     int
}

// NewRecorder creates a recorder with the default capacity.
func NewRecorder() *Recorder { return &Recorder{cap: defaultTraceCap} }

// Record appends one event (nil-safe; drops past capacity).
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if len(r.events) >= r.cap {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Events returns the recorded events (not a copy).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Dropped reports events lost to the capacity bound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.events = r.events[:0]
	r.dropped = 0
}

// Render formats the whole trace, one event per line, with a trailing
// newline after the last event and a drop marker if the capacity bound
// was hit. Byte-identical for identical event sequences.
func (r *Recorder) Render() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range r.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	if r.dropped > 0 {
		fmt.Fprintf(&b, "... %d event(s) dropped (trace capacity %d)\n", r.dropped, r.cap)
	}
	return b.String()
}

// sysNames maps syscall numbers to their names for rendering. Indexed
// lookups only — no maps, so rendering order is trivially stable.
var sysNames = [...]string{
	abi.SysExit:         "exit",
	abi.SysWrite:        "write",
	abi.SysRead:         "read",
	abi.SysOpen:         "open",
	abi.SysClose:        "close",
	abi.SysDup:          "dup",
	abi.SysDup2:         "dup2",
	abi.SysPipe:         "pipe",
	abi.SysFork:         "fork",
	abi.SysVfork:        "vfork",
	abi.SysExec:         "exec",
	abi.SysSpawn:        "spawn",
	abi.SysWaitPid:      "waitpid",
	abi.SysGetPid:       "getpid",
	abi.SysGetPPid:      "getppid",
	abi.SysBrk:          "brk",
	abi.SysMmap:         "mmap",
	abi.SysMunmap:       "munmap",
	abi.SysTouch:        "touch",
	abi.SysKill:         "kill",
	abi.SysSigaction:    "sigaction",
	abi.SysSigprocmask:  "sigprocmask",
	abi.SysSigreturn:    "sigreturn",
	abi.SysThreadCreate: "thread_create",
	abi.SysThreadExit:   "thread_exit",
	abi.SysFutexWait:    "futex_wait",
	abi.SysFutexWake:    "futex_wake",
	abi.SysYield:        "yield",
	abi.SysNanosleep:    "nanosleep",
	abi.SysClock:        "clock",
	abi.SysSeek:         "seek",
	abi.SysGetTid:       "gettid",
	abi.SysSetCloexec:   "set_cloexec",
	abi.SysStat:         "stat",
	abi.SysMkdir:        "mkdir",
	abi.SysUnlink:       "unlink",
	abi.SysChdir:        "chdir",
	abi.SysReadDir:      "readdir",
	abi.SysProcCount:    "proc_count",
	abi.SysGetRSS:       "get_rss",
	abi.SysMprotect:     "mprotect",
}

// SyscallName renders a syscall number (unknown numbers keep their
// numeric form).
func SyscallName(num uint64) string {
	if num < uint64(len(sysNames)) && sysNames[num] != "" {
		return sysNames[num]
	}
	return fmt.Sprintf("sys%d", num)
}
