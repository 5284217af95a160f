// Package core implements the process-creation APIs that "A fork() in
// the road" (HotOS'19) advocates in place of fork:
//
//   - Spawn: a posix_spawn-compatible high-level API (file actions +
//     attributes) that never duplicates the parent — §6.1 of the paper.
//   - Builder: a cross-process construction API in the style of
//     Exokernel/Fuchsia process_builder — §6.2: the child is assembled
//     piece by piece (image, descriptors, memory, signal state) and
//     only then started.
//   - EmulateFork: fork implemented *on top of* the cross-process API,
//     demonstrating the paper's §5 claim that a kernel without fork
//     can still support it (slowly, in user space).
//
// All three sit on the primitives of internal/kernel and are measured
// against kernel fork by internal/experiments.
//
// The package is also the one home of the choice between them. Method
// names a creation strategy, and its table holds every strategy's
// report and command-line name; sim.Strategy is Method under its
// public name. Fork is the only code that turns a fork-family method
// into kernel calls, and CreateChild is spawn, the builder, or Fork
// then exec.
package core

import (
	"fmt"

	"repro/internal/kernel"
)

// Method names a process-creation strategy under measurement: a line
// of the paper's Figure 1 or one of the ablations this repo adds (eager
// fork, cross-process builder, user-space fork emulation). The zero
// value is MethodSpawn. Four methods are the fork family, whose child
// starts as a duplicate of its parent: fork, vfork, eager fork and the
// emulation.
type Method int

// Creation methods.
const (
	MethodSpawn Method = iota
	MethodForkExec
	MethodVforkExec
	MethodBuilder
	MethodEmulatedForkExec
	MethodForkEagerExec
)

// methodNames holds each method's report name, which tables and JSON
// reports print, and its command-line name, the value -via takes.
var methodNames = [...]struct{ report, cli string }{
	MethodSpawn:            {"posix_spawn", "spawn"},
	MethodForkExec:         {"fork+exec", "fork"},
	MethodVforkExec:        {"vfork+exec", "vfork"},
	MethodBuilder:          {"cross-proc builder", "builder"},
	MethodEmulatedForkExec: {"emulated fork+exec", "emufork"},
	MethodForkEagerExec:    {"fork(eager)+exec", "eager"},
}

// Valid reports whether m is one of the six methods. Counting up from
// Method(0) while Valid visits every method in order.
func (m Method) Valid() bool { return m >= 0 && int(m) < len(methodNames) }

// String is m's report name ("fork+exec", "posix_spawn", …).
func (m Method) String() string {
	if !m.Valid() {
		return fmt.Sprintf("method(%d)", int(m))
	}
	return methodNames[m].report
}

// Name is m's command-line name ("fork", "spawn", …), or "" if m is
// not Valid.
func (m Method) Name() string {
	if !m.Valid() {
		return ""
	}
	return methodNames[m].cli
}

// Fork duplicates parent by the fork-family method m and returns the
// parked child, before any exec: a COW fork, a vfork that shares the
// parent's space (a harness vfork suspends nothing: there is no VM
// thread to suspend), an eager fork that copies every private resident
// page, or the user-space emulation. It is the only code that maps a
// method onto kernel calls, so MethodForkExec is a COW fork even on a
// machine booted with eager fork. Spawn, the builder and an invalid
// method are an error.
func Fork(k *kernel.Kernel, parent *kernel.Process, m Method) (*kernel.Process, error) {
	switch m {
	case MethodForkExec:
		return k.ForkWithMode(parent, kernel.ForkCOW)
	case MethodVforkExec:
		return k.ForkWithMode(parent, kernel.ForkVfork)
	case MethodForkEagerExec:
		return k.ForkWithMode(parent, kernel.ForkEager)
	case MethodEmulatedForkExec:
		return EmulateFork(k, parent)
	}
	return nil, fmt.Errorf("core: %v is not a fork", m)
}
