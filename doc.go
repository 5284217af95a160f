// Package repro is a from-scratch reproduction of "A fork() in the
// road" (HotOS 2019): a deterministic user-level operating-system
// simulator (virtual memory with copy-on-write, page tables, VFS,
// signals, futexes, a bytecode VM and assembler for userland) plus the
// process-creation APIs the paper compares — fork, vfork, posix_spawn,
// and cross-process construction — and a harness that regenerates the
// paper's figure and comparison table in virtual time.
//
// The entry point is the sim package: an os/exec-style process API
// over the simulator (sim.System, sim.Cmd, sim.Process) whose per-
// command strategy selector Via runs any workload through every
// creation API the paper compares. The internal packages are the
// substrate beneath it:
//
//	sim                  the public API — start here
//	internal/core        the paper's contribution: spawn + cross-process APIs
//	internal/kernel      the simulated OS
//	internal/mem, pagetable, addrspace, vfs, sig — substrates
//	internal/isa, asm, image, ulib — the userland toolchain
//	internal/experiments — Figure 1, Table 1, E3–E12, E15, E16, ablations
//	cmd/forkbench, forkrun, forksh, kxasm — executables
//	examples/            — runnable API walkthroughs
//
// See README.md. `forkbench all` regenerates every experiment, and
// cmd/forkbench/testdata/experiments_all.txt pins its output. The
// benchmarks in bench_test.go time the substrate and three load
// scenarios on the host.
package repro
