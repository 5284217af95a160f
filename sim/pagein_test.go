package sim_test

import (
	"bytes"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/vfs"
	"repro/sim"
)

// Demand paging hands an executable's file pages to frames by
// reference: no host copy is made. These tests pin the two ways that
// sharing could leak — a process writing its own data page, and the
// executable being rewritten in place while a process still maps it.

// progData has a non-empty .data segment, which exec maps private and
// writable from the file.
const progData = `
_start:
    movi r1, 0
    sys SYS_EXIT
.data
greeting: .asciz "the data segment as the file has it"
`

// segment returns p's VMA of the given kind.
func segment(t *testing.T, p *sim.Process, kind addrspace.Kind) *addrspace.VMA {
	t.Helper()
	for _, v := range p.Raw().Space().VMAs() {
		if v.Kind == kind {
			return v
		}
	}
	t.Fatalf("pid %d has no %v segment", p.Pid(), kind)
	return nil
}

// peek reads n bytes of p's memory at va, faulting the page in.
func peek(t *testing.T, p *sim.Process, va uint64, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if err := p.Raw().Space().ReadBytes(va, buf); err != nil {
		t.Fatalf("pid %d: read %#x: %v", p.Pid(), va, err)
	}
	return buf
}

func create(t *testing.T, sys *sim.System, path string) *sim.Process {
	t.Helper()
	p, err := sys.Command(path).Create()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Destroy)
	return p
}

// TestExecDataWriteStaysPrivate execs one image twice. Both processes
// page the data segment in from the same file bytes; a write by one
// must reach neither the other nor the file a later exec reads.
func TestExecDataWriteStaysPrivate(t *testing.T) {
	sys := newSys(t, sim.WithProgram("/bin/data", progData))
	a, b := create(t, sys, "/bin/data"), create(t, sys, "/bin/data")
	data := segment(t, a, addrspace.KindData)
	orig := peek(t, b, data.Start, 40)
	if !bytes.HasPrefix(orig, []byte("the data segment")) {
		t.Fatalf("data segment reads %q", orig)
	}

	msg := []byte("written by the first process")
	if err := a.Raw().Space().WriteBytes(data.Start, msg); err != nil {
		t.Fatal(err)
	}
	if got := peek(t, a, data.Start, len(msg)); !bytes.Equal(got, msg) {
		t.Errorf("writer reads back %q", got)
	}
	if got := peek(t, b, data.Start, len(orig)); !bytes.Equal(got, orig) {
		t.Errorf("the other process's data segment reads %q after the write, want %q", got, orig)
	}
	c := create(t, sys, "/bin/data")
	if got := peek(t, c, data.Start, len(orig)); !bytes.Equal(got, orig) {
		t.Errorf("a later exec's data segment reads %q, want %q", got, orig)
	}
}

// TestExecutableRewrittenInPlace overwrites an executable's text in
// place, through a descriptor opened without O_TRUNC, while a process
// that paged it in is alive. That process keeps the text it paged in,
// and the next exec reads the new bytes.
func TestExecutableRewrittenInPlace(t *testing.T) {
	sys := newSys(t, sim.WithProgram("/bin/data", progData))
	a := create(t, sys, "/bin/data")
	text := segment(t, a, addrspace.KindText)
	const n = 64
	before := peek(t, a, text.Start, n)

	raw, err := sys.ReadFile("/bin/data")
	if err != nil {
		t.Fatal(err)
	}
	off := text.BackingOff
	if !bytes.Equal(raw[off:off+n], before) {
		t.Fatalf("text reads %x, file has %x", before, raw[off:off+n])
	}
	for i := off; i < off+n; i++ {
		raw[i] ^= 0xff
	}
	ino, err := sys.Kernel().FS().Resolve(nil, "/bin/data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.NewOpenFile(ino, vfs.OWrOnly).Write(raw); err != nil {
		t.Fatal(err)
	}

	if got := peek(t, a, text.Start, n); !bytes.Equal(got, before) {
		t.Errorf("the running process's text changed under it: %x, want %x", got, before)
	}
	c := create(t, sys, "/bin/data")
	if got := peek(t, c, text.Start, n); !bytes.Equal(got, raw[off:off+n]) {
		t.Errorf("the next exec's text reads %x, want the rewritten %x", got, raw[off:off+n])
	}
}
