package core

import (
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// EmulateFork implements fork() *on top of* the cross-process
// operations, as §5 of the paper argues a fork-less kernel could: a
// new empty process is created, every VMA of the parent is re-created
// in the child, contents are copied through cross-process reads and
// writes, descriptors are duplicated one by one, and the register file
// of the parent's main thread is cloned.
//
// It is deliberately the slow path — user-space emulation cannot share
// pages copy-on-write, so its cost is Θ(resident bytes), not Θ(mapped
// pages). The experiments harness measures this against kernel fork to
// quantify what §5 calls the price of keeping fork out of the kernel.
//
// Limitations (documented, matching the paper's discussion): only the
// calling thread is duplicated; MAP_SHARED regions are re-mapped
// shared via a fresh mapping rather than aliasing the same frames, so
// post-fork shared-memory coupling with the parent is NOT preserved.
func EmulateFork(k *kernel.Kernel, parent *kernel.Process) (*kernel.Process, error) {
	child := k.NewSynthetic(parent.Name+"-emufork", parent)
	fail := func(err error) (*kernel.Process, error) {
		k.DestroyProcess(child)
		return nil, err
	}

	// 1. Recreate the memory map and copy resident contents. Every
	// VMA is mapped writable so the copy can write it.
	for _, v := range parent.Space().VMAs() {
		_, err := child.Space().Map(v.Start, v.Len(), v.Prot|addrspace.Write, addrspace.MapOpts{
			Kind: v.Kind, Name: v.Name, Shared: v.Shared, Huge: v.Huge,
		})
		if err != nil {
			return fail(fmt.Errorf("core: emulate fork: map %s: %w", v.Name, err))
		}
		// Copy page by page. Reading the parent faults pages in
		// read-only; unmaterialised (all-zero) pages still cost a
		// read+write pass — user space cannot see which pages
		// are resident, another §5 point.
		buf := make([]byte, mem.PageSize)
		for va := v.Start; va < v.End; va += mem.PageSize {
			if err := parent.Space().ReadBytes(va, buf); err != nil {
				return fail(err)
			}
			if err := child.Space().WriteBytes(va, buf); err != nil {
				return fail(err)
			}
		}
	}

	// 2. Restore intended protections: mprotect each VMA that was
	// mapped writable only for the copy back to its own protection,
	// which returns its commit reservation and leaves its pages'
	// entries read-only.
	for _, v := range parent.Space().VMAs() {
		if v.Prot&addrspace.Write != 0 {
			continue
		}
		if err := child.Space().Protect(v.Start, v.Len(), v.Prot); err != nil {
			return fail(fmt.Errorf("core: emulate fork: protect %s: %w", v.Name, err))
		}
	}

	// 3. Descriptors, one explicit duplication per slot.
	pfds := parent.FDs()
	for fd := 0; fd <= pfds.MaxFD(); fd++ {
		of, err := pfds.Get(fd)
		if err != nil {
			continue
		}
		cloexec, _ := pfds.Cloexec(fd)
		if err := child.FDs().InstallAt(of.Retain(), cloexec, fd); err != nil {
			of.Release()
			return fail(err)
		}
	}

	// 4. Signal dispositions.
	*child.Signals() = *parent.Signals().Clone()

	// 5. Thread context: clone the parent's main thread registers.
	pt, ct := parent.MainThread(), child.MainThread()
	if pt == nil || ct == nil {
		return fail(fmt.Errorf("core: emulate fork: missing thread"))
	}
	for r := 0; r < 16; r++ {
		ct.SetReg(r, pt.Reg(r))
	}
	ct.SetPC(pt.PC())

	return child, nil
}
