package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/abi"
	"repro/internal/addrspace"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sig"
	"repro/internal/ulib"
	"repro/internal/vfs"
)

func newKernel(t *testing.T, out *bytes.Buffer) *kernel.Kernel {
	t.Helper()
	opts := kernel.Options{RAMBytes: 1 << 30, NumCPUs: 1}
	if out != nil {
		opts.ConsoleOut = out
	}
	k, err := kernel.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ulib.InstallAll(k); err != nil {
		t.Fatal(err)
	}
	return k
}

func wireStdout(t *testing.T, k *kernel.Kernel, p *kernel.Process) {
	t.Helper()
	con, err := k.FS().Resolve(nil, "/dev/console")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FDs().InstallAt(vfs.NewOpenFile(con, vfs.OWrOnly), false, 1); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnRunsChild(t *testing.T) {
	var out bytes.Buffer
	k := newKernel(t, &out)
	parent := k.NewSynthetic("parent", nil)
	wireStdout(t, k, parent)
	child, err := Spawn(k, parent, "/bin/echo", []string{"echo", "spawned"}, nil, nil)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if err := k.Run(kernel.RunLimits{MaxInstructions: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	if out.String() != "spawned\n" {
		t.Errorf("output = %q", out.String())
	}
	if child.State() != kernel.ProcZombie {
		t.Errorf("child state = %v", child.State())
	}
	k.WaitReap(parent, child.Pid)
	k.DestroyProcess(parent)
}

func TestSpawnFileActions(t *testing.T) {
	k := newKernel(t, nil)
	parent := k.NewSynthetic("parent", nil)
	if _, err := k.FS().WriteFile("/tmp/out", nil); err != nil {
		t.Fatal(err)
	}
	fa := new(FileActions).
		AddOpen(1, "/tmp/out", vfs.OWrOnly).
		AddDup2(1, 2)
	if fa.Len() != 2 {
		t.Fatalf("Len = %d", fa.Len())
	}
	child, err := Spawn(k, parent, "/bin/echo", []string{"echo", "to-file"}, fa, nil)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if err := k.Run(kernel.RunLimits{MaxInstructions: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	ino, _ := k.FS().Resolve(nil, "/tmp/out")
	if string(ino.Data()) != "to-file\n" {
		t.Errorf("file = %q", ino.Data())
	}
	_ = child
	k.WaitReap(parent, -1)
	k.DestroyProcess(parent)
}

func TestSpawnAttrSignals(t *testing.T) {
	k := newKernel(t, nil)
	parent := k.NewSynthetic("parent", nil)
	// Parent ignores SIGTERM; without attrs the child inherits the
	// ignore (exec keeps ignores), with SetSigDefault it reverts.
	if err := parent.Signals().Set(sig.SIGTERM, sig.Disposition{Kind: sig.ActIgnore}); err != nil {
		t.Fatal(err)
	}
	plain, err := SpawnParked(k, parent, "/bin/true", []string{"true"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Signals().Get(sig.SIGTERM).Kind != sig.ActIgnore {
		t.Error("ignore not inherited by default")
	}
	attr := new(Attr).SetSigDefault(sig.MakeSet(sig.SIGTERM)).SetSigMask(sig.MakeSet(sig.SIGUSR1))
	reset, err := SpawnParked(k, parent, "/bin/true", []string{"true"}, nil, attr)
	if err != nil {
		t.Fatal(err)
	}
	if reset.Signals().Get(sig.SIGTERM).Kind != sig.ActDefault {
		t.Error("SetSigDefault did not reset")
	}
	if !reset.MainThread().SigMask().Has(sig.SIGUSR1) {
		t.Error("SetSigMask not applied")
	}
	k.DestroyProcess(plain)
	k.DestroyProcess(reset)
	k.DestroyProcess(parent)
}

func TestBuilderFull(t *testing.T) {
	var out bytes.Buffer
	k := newKernel(t, &out)
	parent := k.NewSynthetic("parent", nil)
	wireStdout(t, k, parent)

	b := NewBuilder(k, parent, "worker")
	b.LoadImage("/bin/echo", []string{"echo", "built"})
	b.InheritFD(1, 1)
	var scratch uint64
	b.MapAnon(0, 1<<20, addrspace.Read|addrspace.Write, &scratch)
	b.WriteMemory(scratch, []byte("pre-seeded"))
	b.SetSignal(sig.SIGUSR2, sig.Disposition{Kind: sig.ActIgnore})
	child, err := b.Start()
	if err != nil {
		t.Fatalf("builder: %v", err)
	}
	// The pre-seeded memory is visible inside the child.
	buf := make([]byte, 10)
	if err := child.Space().ReadBytes(scratch, buf); err != nil || string(buf) != "pre-seeded" {
		t.Errorf("seeded memory: %q %v", buf, err)
	}
	if child.Signals().Get(sig.SIGUSR2).Kind != sig.ActIgnore {
		t.Error("builder signal lost")
	}
	if err := k.Run(kernel.RunLimits{MaxInstructions: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	if out.String() != "built\n" {
		t.Errorf("output = %q", out.String())
	}
	if got := abi.StatusExitCode(child.ExitStatus()); got != 0 {
		t.Errorf("exit = %d", got)
	}
	k.WaitReap(parent, -1)
	k.DestroyProcess(parent)
}

func TestBuilderErrorsAccumulate(t *testing.T) {
	k := newKernel(t, nil)
	parent := k.NewSynthetic("parent", nil)
	b := NewBuilder(k, parent, "broken")
	b.LoadImage("/no/such/binary", nil)
	b.InheritFD(99, 0) // also broken, but the first error wins
	if _, err := b.Start(); err == nil {
		t.Fatal("Start succeeded with broken builder")
	}
	// The half-built child was torn down.
	if got := k.LiveProcessCount(); got != 1 {
		t.Errorf("live processes = %d, want 1 (parent only)", got)
	}
	// Start before LoadImage is rejected.
	b2 := NewBuilder(k, parent, "empty")
	if _, err := b2.Start(); err == nil {
		t.Fatal("Start without LoadImage succeeded")
	}
	k.DestroyProcess(parent)
}

func TestBuilderStartFailureDoesNotLeak(t *testing.T) {
	k := newKernel(t, nil)
	parent := k.NewSynthetic("parent", nil)
	b := NewBuilder(k, parent, "doomed")
	b.LoadImage("/bin/true", []string{"true"})
	// Sabotage: destroy the child out from under the builder, so
	// StartProcess fails (no live thread). Start must report the
	// error and leave no residue in the process table.
	pid := b.Child().Pid
	k.DestroyProcess(b.Child())
	if _, err := b.Start(); err == nil {
		t.Fatal("Start succeeded on a destroyed child")
	}
	if p := k.Lookup(pid); p != nil {
		t.Errorf("child pid %d leaked in process table (state %v)", pid, p.State())
	}
	if got := k.LiveProcessCount(); got != 1 {
		t.Errorf("live processes = %d, want 1 (parent only)", got)
	}
	// The builder is spent: a second Start reports that, rather
	// than re-registering the child.
	if _, err := b.Start(); err == nil {
		t.Fatal("second Start succeeded on a spent builder")
	}
	k.DestroyProcess(parent)
}

func TestEmulateForkCopiesState(t *testing.T) {
	k := newKernel(t, nil)
	parent := k.NewSynthetic("parent", nil)
	v, err := parent.Space().Map(0x100000, 1<<20, addrspace.Read|addrspace.Write, addrspace.MapOpts{Name: "ws"})
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Space().WriteBytes(v.Start, []byte("emulated")); err != nil {
		t.Fatal(err)
	}
	ino, _ := k.FS().WriteFile("/tmp/ef", []byte("z"))
	parent.FDs().InstallAt(vfs.NewOpenFile(ino, vfs.ORdWr), false, 5)
	parent.Signals().Set(sig.SIGUSR1, sig.Disposition{Kind: sig.ActHandler, Handler: 0x400100})
	parent.MainThread().SetReg(7, 0xdead)

	child, err := EmulateFork(k, parent)
	if err != nil {
		t.Fatalf("EmulateFork: %v", err)
	}
	buf := make([]byte, 8)
	if err := child.Space().ReadBytes(v.Start, buf); err != nil || string(buf) != "emulated" {
		t.Errorf("memory: %q %v", buf, err)
	}
	// Isolation: emulation copies eagerly, so divergence is immediate.
	parent.Space().WriteBytes(v.Start, []byte("DIVERGED"))
	child.Space().ReadBytes(v.Start, buf)
	if string(buf) != "emulated" {
		t.Errorf("no isolation: %q", buf)
	}
	if _, err := child.FDs().Get(5); err != nil {
		t.Error("fd not duplicated")
	}
	if child.Signals().Get(sig.SIGUSR1).Kind != sig.ActHandler {
		t.Error("signal table not copied")
	}
	if child.MainThread().Reg(7) != 0xdead {
		t.Error("registers not copied")
	}
	k.DestroyProcess(child)
	k.DestroyProcess(parent)
}

// TestEmulateForkCommitsItsVMAs holds an emulated fork's child to the
// commit its VMAs account for. The emulation maps every VMA writable to
// copy it, so each read-only private VMA (a program's text) reserves
// commit on the way in; the mprotect back to read-only must return that
// reservation and leave the copied pages' entries read-only, so the
// child commits exactly its private writable VMAs, as its parent does.
func TestEmulateForkCommitsItsVMAs(t *testing.T) {
	k := newKernel(t, nil)
	host := k.NewSynthetic("host", nil)
	parent, err := SpawnParked(k, host, "/bin/true", []string{"true"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	child, err := EmulateFork(k, parent)
	if err != nil {
		t.Fatalf("EmulateFork: %v", err)
	}
	pvmas, cvmas := parent.Space().VMAs(), child.Space().VMAs()
	if len(cvmas) != len(pvmas) {
		t.Fatalf("child has %d VMAs, parent %d", len(cvmas), len(pvmas))
	}
	readOnly := 0
	for i, v := range cvmas {
		pv := pvmas[i]
		if v.Start != pv.Start || v.End != pv.End || v.Prot != pv.Prot || v.Shared != pv.Shared {
			t.Errorf("child VMA %s [%#x,%#x) prot %v shared %v, parent [%#x,%#x) prot %v shared %v",
				v.Name, v.Start, v.End, v.Prot, v.Shared, pv.Start, pv.End, pv.Prot, pv.Shared)
		}
		if v.Prot&addrspace.Write != 0 {
			continue
		}
		readOnly++
		for va := v.Start; va < v.End; va += mem.PageSize {
			if pte, ok := child.Space().PageTable().Lookup(va); ok && pte.Writable() {
				t.Errorf("child's read-only VMA %s maps %#x writable", v.Name, va)
			}
		}
	}
	if readOnly == 0 {
		t.Fatal("the spawned program has no read-only VMA to protect")
	}
	for _, p := range []*kernel.Process{parent, child} {
		var want uint64
		for _, v := range p.Space().VMAs() {
			if !v.Shared && v.Prot&addrspace.Write != 0 {
				want += v.Len()
			}
		}
		if got := p.Space().Committed(); got != want {
			t.Errorf("%s commits %d bytes, its private writable VMAs %d", p.Name, got, want)
		}
	}
	k.DestroyProcess(child)
	k.DestroyProcess(parent)
	k.DestroyProcess(host)
}

// TestMethodsNamed pins the method table: every method in order, its
// report name and its command-line name, and nothing past the six.
func TestMethodsNamed(t *testing.T) {
	want := [][2]string{
		{"posix_spawn", "spawn"}, {"fork+exec", "fork"}, {"vfork+exec", "vfork"},
		{"cross-proc builder", "builder"}, {"emulated fork+exec", "emufork"}, {"fork(eager)+exec", "eager"},
	}
	var got [][2]string
	for m := Method(0); m.Valid(); m++ {
		got = append(got, [2]string{m.String(), m.Name()})
	}
	if !slices.Equal(got, want) {
		t.Errorf("methods %q, want %q", got, want)
	}
	for _, m := range []Method{-1, 6, 42} {
		if m.Valid() || m.Name() != "" || m.String() != fmt.Sprintf("method(%d)", int(m)) {
			t.Errorf("Method(%d): valid %v, name %q, string %q", int(m), m.Valid(), m.Name(), m.String())
		}
	}
}

func TestCreateChildAllMethods(t *testing.T) {
	k := newKernel(t, nil)
	parent := k.NewSynthetic("parent", nil)
	if _, err := parent.Space().Map(0x100000, 4<<20, addrspace.Read|addrspace.Write, addrspace.MapOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := parent.Space().Touch(0x100000, 4<<20, addrspace.AccessWrite); err != nil {
		t.Fatal(err)
	}
	for m := Method(0); m.Valid(); m++ {
		child, elapsed, err := CreateChild(k, parent, m, "/bin/true", []string{"true"})
		if err != nil {
			t.Errorf("%v: %v", m, err)
			continue
		}
		if elapsed == 0 {
			t.Errorf("%v: zero elapsed time", m)
		}
		if child.MainThread() == nil {
			t.Errorf("%v: child has no thread", m)
		}
		k.DestroyProcess(child)
	}
	k.DestroyProcess(parent)
}

// TestCreateChildRefusesUnknownMethod: a method outside the table is an
// error that creates nothing, where it used to run as posix_spawn; and
// Fork refuses the two methods that do not duplicate the parent.
func TestCreateChildRefusesUnknownMethod(t *testing.T) {
	k := newKernel(t, nil)
	parent := k.NewSynthetic("parent", nil)
	procs := k.ProcessCount()
	for _, m := range []Method{-1, 6, 42} {
		if child, _, err := CreateChild(k, parent, m, "/bin/true", []string{"true"}); err == nil || child != nil {
			t.Errorf("CreateChild(%v) = %v, %v; want an error", m, child, err)
		}
	}
	for _, m := range []Method{MethodSpawn, MethodBuilder, 42} {
		if child, err := Fork(k, parent, m); err == nil || child != nil {
			t.Errorf("Fork(%v) = %v, %v; want an error", m, child, err)
		}
	}
	if n := k.ProcessCount(); n != procs {
		t.Errorf("%d processes after the refusals, want %d", n, procs)
	}
}

func TestSpawnChdirAction(t *testing.T) {
	k := newKernel(t, nil)
	parent := k.NewSynthetic("parent", nil)
	if _, err := k.FS().MkdirAll("/data/deep"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.FS().WriteFile("/data/deep/input", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Relative AddOpen after AddChdir resolves in the new cwd.
	fa := new(FileActions).AddChdir("/data/deep").AddOpen(5, "input", vfs.ORdOnly)
	child, err := SpawnParked(k, parent, "/bin/true", []string{"true"}, fa, nil)
	if err != nil {
		t.Fatalf("spawn with chdir action: %v", err)
	}
	of, err := child.FDs().Get(5)
	if err != nil {
		t.Fatalf("fd 5 missing: %v", err)
	}
	if string(of.Inode().Data()) != "payload" {
		t.Error("wrong file opened")
	}
	// Chdir to a missing directory fails the whole spawn.
	bad := new(FileActions).AddChdir("/nope")
	if _, err := SpawnParked(k, parent, "/bin/true", []string{"true"}, bad, nil); err == nil {
		t.Error("spawn with bad chdir succeeded")
	}
	k.DestroyProcess(child)
	k.DestroyProcess(parent)
}

// TestSpawnCloseAction: spawn inherits the parent's descriptors unless
// a file action says otherwise, and AddClose is that action.
func TestSpawnCloseAction(t *testing.T) {
	k := newKernel(t, nil)
	parent := k.NewSynthetic("parent", nil)
	ino, err := k.FS().WriteFile("/tmp/secret", []byte("key"))
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.FDs().InstallAt(vfs.NewOpenFile(ino, vfs.ORdOnly), false, 5); err != nil {
		t.Fatal(err)
	}
	plain, err := SpawnParked(k, parent, "/bin/true", []string{"true"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.FDs().Get(5); err != nil {
		t.Errorf("fd 5 not inherited without file actions: %v", err)
	}
	fa := new(FileActions).AddClose(5)
	if fa.Len() != 1 {
		t.Fatalf("Len = %d", fa.Len())
	}
	closed, err := SpawnParked(k, parent, "/bin/true", []string{"true"}, fa, nil)
	if err != nil {
		t.Fatalf("spawn with close action: %v", err)
	}
	if _, err := closed.FDs().Get(5); err == nil {
		t.Error("fd 5 still open in the child after AddClose(5)")
	}
	if _, err := parent.FDs().Get(5); err != nil {
		t.Errorf("AddClose closed the parent's fd 5: %v", err)
	}
	k.DestroyProcess(plain)
	k.DestroyProcess(closed)
	k.DestroyProcess(parent)
}

// TestBuilderOpenFD: the builder opens a path straight into a child
// descriptor — here cat's stdin — and a missing path fails Start.
func TestBuilderOpenFD(t *testing.T) {
	var out bytes.Buffer
	k := newKernel(t, &out)
	parent := k.NewSynthetic("parent", nil)
	wireStdout(t, k, parent)
	if _, err := k.FS().WriteFile("/tmp/in", []byte("opened for the child\n")); err != nil {
		t.Fatal(err)
	}
	child, err := NewBuilder(k, parent, "cat").
		LoadImage("/bin/cat", []string{"cat"}).
		OpenFD(0, "/tmp/in", vfs.ORdOnly).
		InheritFD(1, 1).
		Start()
	if err != nil {
		t.Fatalf("builder: %v", err)
	}
	if err := k.Run(kernel.RunLimits{MaxInstructions: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	if out.String() != "opened for the child\n" {
		t.Errorf("output = %q", out.String())
	}
	if got := abi.StatusExitCode(child.ExitStatus()); got != 0 {
		t.Errorf("exit = %d", got)
	}
	k.WaitReap(parent, -1)

	b := NewBuilder(k, parent, "cat").LoadImage("/bin/cat", []string{"cat"}).OpenFD(0, "/tmp/missing", vfs.ORdOnly)
	if _, err := b.Start(); err == nil {
		t.Error("OpenFD of a missing path did not fail Start")
	}
	k.DestroyProcess(parent)
}
