package ulib

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/asm"
	"repro/internal/image"
)

// Installer is anything that can place an executable image at a path;
// *kernel.Kernel satisfies it. Depending on an interface here keeps
// ulib importable from the kernel's own tests.
type Installer interface {
	InstallImage(path string, im *image.Image) error
}

// Sources maps program name → assembly source (without the runtime,
// which Build appends).
var Sources = map[string]string{
	"true":             progTrue,
	"false":            progFalse,
	"echo":             progEcho,
	"cat":              progCat,
	"init":             progInit,
	"spawnloop":        progSpawnLoop,
	"forkloop":         progForkLoop,
	"forkexec":         progForkExec,
	"vforkexec":        progVforkExec,
	"stdio_fork":       progStdioFork,
	"offset_fork":      progOffsetFork,
	"threads_deadlock": progThreadsDeadlock,
	"threads_spawn":    progThreadsSpawn,
	"threads_sum":      progThreadsSum,
	"smpspin":          progSMPSpin,
	"segv":             progSegv,
	"sigdemo":          progSigdemo,
	"hog":              progHog,
	"pingpong":         progPingPong,
	"cloexec_probe":    progCloexecProbe,
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*image.Image{}
)

// Build assembles (and caches) the named program.
func Build(name string) (*image.Image, error) {
	src, ok := Sources[name]
	if !ok {
		return nil, fmt.Errorf("ulib: unknown program %q", name)
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if im := cache[name]; im != nil {
		return im, nil
	}
	im, err := asm.Assemble(src + Runtime)
	if err != nil {
		return nil, fmt.Errorf("ulib: assembling %s: %w", name, err)
	}
	cache[name] = im
	return im, nil
}

// MustBuild panics on assembly errors (programs are constants, so an
// error is a bug).
func MustBuild(name string) *image.Image {
	im, err := Build(name)
	if err != nil {
		panic(err)
	}
	return im
}

// InstallAll writes every program into k's filesystem under /bin.
func InstallAll(k Installer) error {
	names := make([]string, 0, len(Sources))
	for n := range Sources {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		im, err := Build(n)
		if err != nil {
			return err
		}
		if err := k.InstallImage("/bin/"+n, im); err != nil {
			return err
		}
	}
	return nil
}

// Install writes one program into k's filesystem at path.
func Install(k Installer, name, path string) error {
	im, err := Build(name)
	if err != nil {
		return err
	}
	return k.InstallImage(path, im)
}

// ---------------------------------------------------------------
// Program sources. Register convention: the runtime clobbers r0-r9;
// programs keep durable state in r10-r13. At entry r0=argc, r1=argv,
// sp is set below the argument block.
// ---------------------------------------------------------------

// progTrue is the minimal child every process-creation benchmark
// spawns: it exits immediately.
const progTrue = `
_start:
    movi r0, 0
    sys SYS_EXIT
`

const progFalse = `
_start:
    movi r0, 1
    sys SYS_EXIT
`

// progEcho prints its arguments separated by spaces.
const progEcho = `
_start:
    mov r10, r0             ; argc
    mov r11, r1             ; argv
    movi r12, 1
echo_loop:
    bge r12, r10, echo_done
    shli r2, r12, 3
    add r2, r11, r2
    ld8 r0, [r2+0]
    call puts
    addi r12, r12, 1
    bge r12, r10, echo_done
    li r0, echo_sp
    call puts
    b echo_loop
echo_done:
    li r0, echo_nl
    call puts
    movi r0, 0
    sys SYS_EXIT
.data
echo_sp: .asciz " "
echo_nl: .asciz "\n"
`

// progCat copies stdin to stdout.
const progCat = `
_start:
cat_loop:
    movi r0, STDIN
    li r1, cat_buf
    movi r2, 512
    sys SYS_READ
    movi r3, 0
    blt r0, r3, cat_err
    bz r0, cat_done
    mov r2, r0
    li r1, cat_buf
    movi r0, STDOUT
    sys SYS_WRITE
    b cat_loop
cat_done:
    movi r0, 0
    sys SYS_EXIT
cat_err:
    movi r0, 1
    sys SYS_EXIT
.bss
cat_buf: .space 512
`

// progInit spawns each of its arguments as a child and reaps children
// until none remain — a minimal pid-1.
const progInit = `
_start:
    mov r10, r0
    mov r11, r1
    movi r12, 1
init_spawn:
    bge r12, r10, init_wait
    shli r2, r12, 3
    add r2, r11, r2
    ld8 r13, [r2+0]
    addi sp, sp, -16
    st8 [sp+0], r13
    movi r3, 0
    st8 [sp+8], r3
    mov r0, r13
    mov r1, sp
    movi r2, 0
    movi r3, 0
    sys SYS_SPAWN
    addi sp, sp, 16
    addi r12, r12, 1
    b init_spawn
init_wait:
    movi r0, -1
    movi r1, 0
    movi r2, 0
    sys SYS_WAITPID
    movi r3, 0
    bge r0, r3, init_wait
    movi r0, 0
    sys SYS_EXIT
`

// progSpawnLoop spawns argv[2] argv[1]-times, waiting for each: the
// spawn-throughput benchmark body.
const progSpawnLoop = `
_start:
    mov r11, r1
    ld8 r0, [r11+8]
    call atoi
    mov r10, r0
    ld8 r13, [r11+16]
sl_loop:
    bz r10, sl_done
    addi sp, sp, -16
    st8 [sp+0], r13
    movi r3, 0
    st8 [sp+8], r3
    mov r0, r13
    mov r1, sp
    movi r2, 0
    movi r3, 0
    sys SYS_SPAWN
    addi sp, sp, 16
    movi r1, 0
    movi r2, 0
    sys SYS_WAITPID
    addi r10, r10, -1
    b sl_loop
sl_done:
    movi r0, 0
    sys SYS_EXIT
`

// progForkLoop forks argv[1] children that exit immediately, waiting
// for each: the fork-throughput benchmark body.
const progForkLoop = `
_start:
    mov r11, r1
    ld8 r0, [r11+8]
    call atoi
    mov r10, r0
fl_loop:
    bz r10, fl_done
    sys SYS_FORK
    bnz r0, fl_parent
    movi r0, 0
    sys SYS_EXIT
fl_parent:
    movi r1, 0
    movi r2, 0
    sys SYS_WAITPID
    addi r10, r10, -1
    b fl_loop
fl_done:
    movi r0, 0
    sys SYS_EXIT
`

// progForkExec is the classic idiom: fork, exec argv[1] (default
// /bin/true) in the child, wait in the parent.
const progForkExec = `
_start:
    mov r11, r1
    ld8 r13, [r11+8]
    bnz r13, fe_have
    li r13, fe_default
fe_have:
    sys SYS_FORK
    bnz r0, fe_parent
    addi sp, sp, -16
    st8 [sp+0], r13
    movi r3, 0
    st8 [sp+8], r3
    mov r0, r13
    mov r1, sp
    sys SYS_EXEC
    movi r0, 127
    sys SYS_EXIT
fe_parent:
    movi r1, 0
    movi r2, 0
    sys SYS_WAITPID
    movi r0, 0
    sys SYS_EXIT
.data
fe_default: .asciz "/bin/true"
`

// progVforkExec is the same idiom via vfork: the parent is suspended
// until the child execs.
const progVforkExec = `
_start:
    mov r11, r1
    ld8 r13, [r11+8]
    bnz r13, ve_have
    li r13, ve_default
ve_have:
    sys SYS_VFORK
    bnz r0, ve_parent
    addi sp, sp, -16
    st8 [sp+0], r13
    movi r3, 0
    st8 [sp+8], r3
    mov r0, r13
    mov r1, sp
    sys SYS_EXEC
    movi r0, 127
    sys SYS_EXIT
ve_parent:
    movi r1, 0
    movi r2, 0
    sys SYS_WAITPID
    movi r0, 0
    sys SYS_EXIT
.data
ve_default: .asciz "/bin/true"
`

// progStdioFork reproduces the duplicated-buffer bug of §4.2: bytes
// buffered in user space before fork are flushed by parent *and*
// child.
const progStdioFork = `
_start:
    li r0, sf_msg
    call bputs
    sys SYS_FORK
    mov r10, r0
    call bflush
    bz r10, sf_child
    mov r0, r10
    movi r1, 0
    movi r2, 0
    sys SYS_WAITPID
sf_child:
    movi r0, 0
    sys SYS_EXIT
.data
sf_msg: .asciz "unflushed;"
`

// progOffsetFork shows the shared file offset: the child's write
// advances the parent's position, so the file ends up "BA", not "A"
// overwriting "B".
const progOffsetFork = `
_start:
    li r0, of_path
    movi r1, O_RDWR + O_CREATE
    sys SYS_OPEN
    mov r10, r0
    sys SYS_FORK
    bnz r0, of_parent
    mov r0, r10
    li r1, of_b
    movi r2, 1
    sys SYS_WRITE
    movi r0, 0
    sys SYS_EXIT
of_parent:
    movi r1, 0
    movi r2, 0
    sys SYS_WAITPID
    mov r0, r10
    li r1, of_a
    movi r2, 1
    sys SYS_WRITE
    movi r0, 0
    sys SYS_EXIT
.data
of_path: .asciz "/tmp/offset_fork"
of_b: .asciz "B"
of_a: .asciz "A"
`

// progThreadsDeadlock is §4.2's fatal composition of fork and threads:
// a second thread takes a lock and blocks; the main thread forks; the
// child — whose image contains the locked mutex but not the thread
// that owns it — blocks on the lock forever. The simulator's deadlock
// detector fires.
const progThreadsDeadlock = `
_start:
    li r0, td_thread
    movi r1, 0
    li r2, td_stack_top
    sys SYS_THREAD_CREATE
    movi r0, 1000
    sys SYS_NANOSLEEP       ; let the thread take the lock
    sys SYS_FORK
    bnz r0, td_parent
    li r0, td_lock
    call mutex_lock         ; blocks forever: owner not in this image
    movi r0, 0
    sys SYS_EXIT
td_parent:
    movi r1, 0
    movi r2, 0
    sys SYS_WAITPID         ; blocks forever: child is deadlocked
    movi r0, 0
    sys SYS_EXIT
td_thread:
    li r0, td_lock
    call mutex_lock
    li r0, td_park
    movi r1, 0
    sys SYS_FUTEX_WAIT      ; hold the lock and never wake
    b td_thread
.bss
.align 8
td_lock: .space 8
td_park: .space 8
td_stack: .space 4096
td_stack_top: .space 8
`

// progThreadsSum is the sane-threading control: two workers increment
// a shared counter under the futex mutex; main busy-yields until both
// finish and prints the total (2000).
const progThreadsSum = `
_start:
    li r0, ts_worker
    movi r1, 0
    li r2, ts_stack1_top
    sys SYS_THREAD_CREATE
    li r0, ts_worker
    movi r1, 0
    li r2, ts_stack2_top
    sys SYS_THREAD_CREATE
ts_join:
    li r3, ts_done
    ld8 r4, [r3+0]
    movi r5, 2
    beq r4, r5, ts_print
    sys SYS_YIELD
    b ts_join
ts_print:
    li r3, ts_counter
    ld8 r0, [r3+0]
    call print_u64
    li r0, ts_nl
    call puts
    movi r0, 0
    sys SYS_EXIT
ts_worker:
    movi r10, 1000
tw_loop:
    li r0, ts_lock
    call mutex_lock
    li r3, ts_counter
    ld8 r4, [r3+0]
    addi r4, r4, 1
    st8 [r3+0], r4
    li r0, ts_lock
    call mutex_unlock
    addi r10, r10, -1
    bnz r10, tw_loop
    li r0, ts_lock
    call mutex_lock
    li r3, ts_done
    ld8 r4, [r3+0]
    addi r4, r4, 1
    st8 [r3+0], r4
    li r0, ts_lock
    call mutex_unlock
    sys SYS_THREAD_EXIT
.data
ts_nl: .asciz "\n"
.bss
.align 8
ts_lock: .space 8
ts_counter: .space 8
ts_done: .space 8
ts_stack1: .space 4096
ts_stack1_top: .space 8
ts_stack2: .space 4096
ts_stack2_top: .space 8
`

// progSMPSpin is the multithreaded server of the SMP load scenarios:
// `smpspin <threads> <bytes>` maps and dirties a heap of the given
// size, then starts <threads> worker threads (max 8) that loop
// forever, each write-touching its own slice of the heap and
// yielding. The main thread parks on a futex; the harness kills the
// process when the scenario ends. While the workers run they keep the
// address space resident on several CPUs, so a harness-side fork
// snapshot pays a TLB-shootdown IPI per remote core, and every
// post-snapshot slice rewrite pays COW breaks with further IPIs — the
// Redis/SMP worst case of §5.
const progSMPSpin = `
_start:
    mov r10, r1             ; argv
    ld8 r0, [r10+8]         ; argv[1]: worker thread count
    call atoi
    mov r11, r0
    ld8 r0, [r10+16]        ; argv[2]: heap bytes
    call atoi
    mov r12, r0
    movi r0, 0
    mov r1, r12
    movi r2, PROT_READ + PROT_WRITE
    movi r3, 0
    sys SYS_MMAP
    movi r3, 0
    blt r0, r3, sp_fail
    li r3, sp_base
    st8 [r3+0], r0
    mov r13, r0             ; heap base
    div r4, r12, r11        ; slice = bytes / threads
    li r3, sp_slice
    st8 [r3+0], r4
    mov r0, r13
    mov r1, r12
    movi r2, 1
    sys SYS_TOUCH           ; dirty the whole heap: the resident parent
    movi r10, 0             ; i
sp_spawn:
    beq r10, r11, sp_park
    addi r4, r10, 1
    shli r4, r4, 12         ; (i+1)*4096
    li r2, sp_stacks
    add r2, r2, r4          ; worker i's stack top
    li r0, sp_worker
    mov r1, r10             ; arg = worker index
    sys SYS_THREAD_CREATE
    addi r10, r10, 1
    b sp_spawn
sp_park:
    li r0, sp_parkw
    movi r1, 0
    sys SYS_FUTEX_WAIT      ; parked forever; the harness kills us
    b sp_park
sp_fail:
    movi r0, 2
    sys SYS_EXIT
sp_worker:
    mov r10, r0             ; worker index
    li r3, sp_base
    ld8 r11, [r3+0]
    li r3, sp_slice
    ld8 r12, [r3+0]
    mul r4, r10, r12
    add r11, r11, r4        ; my slice base
sp_loop:
    mov r0, r11
    mov r1, r12
    movi r2, 1
    sys SYS_TOUCH           ; rewrite my slice (COW breaks after a snapshot)
    sys SYS_YIELD
    b sp_loop
.bss
.align 8
sp_base: .space 8
sp_slice: .space 8
sp_parkw: .space 8
sp_stacks: .space 32768
`

// progSegv dereferences null: default SIGSEGV kills the process.
const progSegv = `
_start:
    movi r1, 0
    ld8 r0, [r1+0]
    movi r0, 0
    sys SYS_EXIT
`

// progSigdemo installs a SIGUSR1 handler, signals itself, and prints
// from the handler and after sigreturn.
const progSigdemo = `
_start:
    movi r0, SIGUSR1
    movi r1, SIG_HANDLER
    li r2, sd_handler
    sys SYS_SIGACTION
    sys SYS_GETPID
    movi r1, SIGUSR1
    sys SYS_KILL
    li r0, sd_after
    call puts
    movi r0, 0
    sys SYS_EXIT
sd_handler:
    li r0, sd_msg
    call puts
    sys SYS_SIGRETURN
.data
sd_msg: .asciz "caught\n"
sd_after: .asciz "done\n"
`

// progHog maps argv[1] MiB of anonymous memory and write-touches it;
// with argv[2] present it then forks and the child re-touches every
// page (the COW storm that trips the OOM killer under heuristic
// overcommit, E5).
const progHog = `
_start:
    mov r11, r1
    ld8 r0, [r11+8]
    call atoi
    shli r10, r0, 20        ; bytes
    movi r0, 0
    mov r1, r10
    movi r2, PROT_READ + PROT_WRITE
    movi r3, 0
    sys SYS_MMAP
    movi r3, 0
    blt r0, r3, hog_fail
    mov r12, r0
    mov r0, r12
    mov r1, r10
    movi r2, 1
    sys SYS_TOUCH
    ld8 r2, [r11+16]
    bz r2, hog_done
    sys SYS_FORK
    movi r3, 0
    blt r0, r3, hog_fail
    bnz r0, hog_parent
    mov r0, r12
    mov r1, r10
    movi r2, 1
    sys SYS_TOUCH
    movi r0, 0
    sys SYS_EXIT
hog_parent:
    movi r1, 0
    movi r2, 0
    sys SYS_WAITPID
hog_done:
    movi r0, 0
    sys SYS_EXIT
hog_fail:
    movi r0, 2
    sys SYS_EXIT
`

// progPingPong: parent and child bounce a byte over a pipe pair N
// times (argv[1], default 100) — exercises pipe blocking both ways.
const progPingPong = `
_start:
    mov r11, r1
    ld8 r0, [r11+8]
    bz r0, pp_defn
    call atoi
    b pp_have
pp_defn:
    movi r0, 100
pp_have:
    mov r10, r0             ; rounds
    addi sp, sp, -32
    mov r0, sp
    sys SYS_PIPE            ; a: parent->child
    addi r0, sp, 16
    sys SYS_PIPE            ; b: child->parent
    ld8 r12, [sp+0]         ; a.r
    ld8 r13, [sp+8]         ; a.w
    sys SYS_FORK
    bnz r0, pp_parent
    ; child: read a.r, write b.w. Close the inherited copy of a.w
    ; first, or our own descriptor keeps the pipe's writer count up
    ; and the final read never sees EOF.
    ld8 r0, [sp+8]
    sys SYS_CLOSE
    ld8 r13, [sp+24]        ; b.w
pp_child_loop:
    mov r0, r12
    li r1, pp_buf
    movi r2, 1
    sys SYS_READ
    bz r0, pp_child_done    ; EOF
    mov r0, r13
    li r1, pp_buf
    movi r2, 1
    sys SYS_WRITE
    b pp_child_loop
pp_child_done:
    movi r0, 0
    sys SYS_EXIT
pp_parent:
    ld8 r12, [sp+16]        ; b.r
pp_parent_loop:
    bz r10, pp_parent_done
    mov r0, r13             ; a.w
    li r1, pp_buf
    movi r2, 1
    sys SYS_WRITE
    mov r0, r12             ; b.r
    li r1, pp_buf
    movi r2, 1
    sys SYS_READ
    addi r10, r10, -1
    b pp_parent_loop
pp_parent_done:
    mov r0, r13
    sys SYS_CLOSE           ; EOF to child
    movi r0, -1
    movi r1, 0
    movi r2, 0
    sys SYS_WAITPID
    li r0, pp_ok
    call puts
    movi r0, 0
    sys SYS_EXIT
.data
pp_ok: .asciz "pingpong ok\n"
.bss
pp_buf: .space 8
`

// progCloexecProbe writes "V" if fd 9 is still open after exec, "C" if
// it was closed — the Table 1 probe for O_CLOEXEC honouring.
const progCloexecProbe = `
_start:
    movi r0, 9
    movi r1, 0
    sys SYS_SET_CLOEXEC     ; validity probe: EBADF if fd 9 is closed
    movi r3, 0
    blt r0, r3, cp_closed
    li r0, cp_open
    call puts
    movi r0, 0
    sys SYS_EXIT
cp_closed:
    li r0, cp_shut
    call puts
    movi r0, 0
    sys SYS_EXIT
.data
cp_open: .asciz "V"
cp_shut: .asciz "C"
`

// progThreadsSpawn is the control for progThreadsDeadlock: identical
// setup (a second thread blocks holding the mutex), but the main
// thread uses posix_spawn instead of fork. The child gets a fresh
// image with no stale lock, so the program completes.
const progThreadsSpawn = `
_start:
    li r0, tsp_thread
    movi r1, 0
    li r2, tsp_stack_top
    sys SYS_THREAD_CREATE
    movi r0, 1000
    sys SYS_NANOSLEEP       ; let the thread take the lock
    addi sp, sp, -16
    li r3, tsp_path
    st8 [sp+0], r3
    movi r3, 0
    st8 [sp+8], r3
    li r0, tsp_path
    mov r1, sp
    movi r2, 0
    movi r3, 0
    sys SYS_SPAWN
    movi r1, 0
    movi r2, 0
    sys SYS_WAITPID         ; child exits normally
    li r0, tsp_ok
    call puts
    movi r0, 0
    sys SYS_EXIT            ; kills the lock-holder thread too
tsp_thread:
    li r0, tsp_lock
    call mutex_lock
    li r0, tsp_park
    movi r1, 0
    sys SYS_FUTEX_WAIT
    b tsp_thread
.data
tsp_path: .asciz "/bin/true"
tsp_ok: .asciz "spawn ok\n"
.bss
.align 8
tsp_lock: .space 8
tsp_park: .space 8
tsp_stack: .space 4096
tsp_stack_top: .space 8
`
