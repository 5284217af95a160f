package experiments

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sig"
	"repro/internal/ulib"
	"repro/internal/vfs"
)

// Table1Result is the executable reconstruction of the paper's
// qualitative comparison of fork against its alternatives: every cell
// is derived by running a probe on the simulator, not asserted by
// hand.
type Table1Result struct {
	Columns []string // creation APIs
	Rows    []T1Row
}

// T1Row is one property across all APIs.
type T1Row struct {
	Property string
	Cells    []string
}

// t1Methods are the four columns, in order.
var t1Methods = []core.Method{
	core.MethodForkExec, // probed pre-exec where the property concerns fork itself
	core.MethodVforkExec,
	core.MethodSpawn,
	core.MethodBuilder,
}

var t1ColNames = []string{"fork", "vfork", "posix_spawn", "cross-proc"}

// Table1 runs all probes.
func Table1() (*Table1Result, error) {
	res := &Table1Result{Columns: t1ColNames}
	type probe struct {
		name string
		fn   func() ([]string, error)
	}
	for _, p := range []probe{
		{"child sees parent's memory", t1Probe{setup: probeSeesMemory}.run},
		{"memory isolated after create", t1Probe{setup: probeIsolation}.run},
		{"descriptors inherited implicitly", t1Probe{setup: probeFDInherit}.run},
		{"O_CLOEXEC honoured", t1Probe{exec: true, setup: probeCloexec}.run},
		{"signal handlers survive", t1Probe{setup: probeSigHandlers}.run},
		{"file offsets shared", t1Probe{setup: probeOffsets}.run},
		{"cost O(1) in parent size", probeO1},
		{"safe with threads+locks", probeThreadSafe},
		{"needs commit for whole parent", probeCommit},
	} {
		cells, err := p.fn()
		if err != nil {
			return nil, fmt.Errorf("table1 probe %q: %w", p.name, err)
		}
		res.Rows = append(res.Rows, T1Row{Property: p.name, Cells: cells})
	}
	return res, nil
}

// Render formats the matrix.
func (r *Table1Result) Render() string {
	rows := [][]string{append([]string{"property"}, r.Columns...)}
	for _, row := range r.Rows {
		rows = append(rows, append([]string{row.Property}, row.Cells...))
	}
	return "Table 1: semantics of fork and its alternatives (probed, not asserted)\n" + renderTable(rows)
}

// t1Kernel builds a fresh kernel with /bin/true installed.
func t1Kernel() (*kernel.Kernel, error) {
	k := newKernel(kernel.Options{RAMBytes: 1 * GiB})
	if err := ulib.Install(k, "true", "/bin/true"); err != nil {
		return nil, err
	}
	return k, nil
}

// t1CreateRaw creates a child via the method family, pre-exec for the
// fork family (the inheritance questions concern fork itself; exec is
// a separate destructive step).
func t1CreateRaw(k *kernel.Kernel, parent *kernel.Process, m core.Method) (*kernel.Process, error) {
	if m == core.MethodSpawn || m == core.MethodBuilder {
		child, _, err := core.CreateChild(k, parent, m, "/bin/true", []string{"true"})
		return child, err
	}
	return core.Fork(k, parent, m)
}

// t1Observe reads one Table 1 cell off a child.
type t1Observe func(child *kernel.Process) (string, error)

// t1Probe asks each method's child one question about what it got
// from its parent. For every method it boots a fresh kernel, builds a
// 1 MiB parent, lets setup prepare the parent, creates one child, reads
// the cell with the observation setup returned, and destroys both.
type t1Probe struct {
	// exec creates the child by the full creation, exec included;
	// otherwise t1CreateRaw creates it, pre-exec for the fork family.
	exec bool
	// setup prepares the parent for method m's column and returns the
	// observation to make on the child.
	setup func(k *kernel.Kernel, parent *kernel.Process, m core.Method) (t1Observe, error)
}

func (p t1Probe) run() ([]string, error) {
	var cells []string
	for _, m := range t1Methods {
		k, err := t1Kernel()
		if err != nil {
			return nil, err
		}
		parent, err := buildParent(k, "p", 1*MiB, false)
		if err != nil {
			return nil, err
		}
		observe, err := p.setup(k, parent, m)
		if err != nil {
			return nil, err
		}
		var child *kernel.Process
		if p.exec {
			child, _, err = core.CreateChild(k, parent, m, "/bin/true", []string{"true"})
		} else {
			child, err = t1CreateRaw(k, parent, m)
		}
		if err != nil {
			return nil, err
		}
		cell, err := observe(child)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
		k.DestroyProcess(child)
		k.DestroyProcess(parent)
	}
	return cells, nil
}

func probeSeesMemory(_ *kernel.Kernel, parent *kernel.Process, _ core.Method) (t1Observe, error) {
	magicVA := parent.Space().VMAs()[0].Start
	if err := parent.Space().WriteBytes(magicVA, []byte("SECRET")); err != nil {
		return nil, err
	}
	return func(child *kernel.Process) (string, error) {
		buf := make([]byte, 6)
		if err := child.Space().ReadBytes(magicVA, buf); err == nil && string(buf) == "SECRET" {
			return "yes", nil
		}
		return "no", nil
	}, nil
}

func probeIsolation(_ *kernel.Kernel, parent *kernel.Process, _ core.Method) (t1Observe, error) {
	va := parent.Space().VMAs()[0].Start
	if err := parent.Space().WriteBytes(va, []byte("AAAA")); err != nil {
		return nil, err
	}
	return func(child *kernel.Process) (string, error) {
		if err := parent.Space().WriteBytes(va, []byte("BBBB")); err != nil {
			return "", err
		}
		buf := make([]byte, 4)
		// A read error means the parent's address is not even
		// mapped in the child — the strongest isolation.
		if err := child.Space().ReadBytes(va, buf); err == nil {
			switch string(buf) {
			case "AAAA":
				return "yes", nil
			case "BBBB":
				return "NO (shared)", nil
			}
		}
		return "fresh", nil
	}, nil
}

// t1InstallFile writes /tmp/t1 with data and installs an open
// description of it in the parent at fd.
func t1InstallFile(k *kernel.Kernel, parent *kernel.Process, data string, cloexec bool, fd int) (*vfs.OpenFile, error) {
	ino, err := k.FS().WriteFile("/tmp/t1", []byte(data))
	if err != nil {
		return nil, err
	}
	of := vfs.NewOpenFile(ino, vfs.ORdWr)
	return of, parent.FDs().InstallAt(of, cloexec, fd)
}

func probeFDInherit(k *kernel.Kernel, parent *kernel.Process, _ core.Method) (t1Observe, error) {
	if _, err := t1InstallFile(k, parent, "hello", false, 7); err != nil {
		return nil, err
	}
	return func(child *kernel.Process) (string, error) {
		if _, err := child.FDs().Get(7); err == nil {
			return "yes", nil
		}
		return "no", nil
	}, nil
}

func probeCloexec(k *kernel.Kernel, parent *kernel.Process, m core.Method) (t1Observe, error) {
	if _, err := t1InstallFile(k, parent, "x", true, 8); err != nil {
		return nil, err
	}
	return func(child *kernel.Process) (string, error) {
		if m == core.MethodBuilder {
			return "n/a (opt-in)", nil
		}
		if _, err := child.FDs().Get(8); err == nil {
			return "KEPT", nil
		}
		return "closed", nil
	}, nil
}

func probeSigHandlers(_ *kernel.Kernel, parent *kernel.Process, _ core.Method) (t1Observe, error) {
	if err := parent.Signals().Set(sig.SIGUSR1, sig.Disposition{Kind: sig.ActHandler, Handler: 0x400100}); err != nil {
		return nil, err
	}
	return func(child *kernel.Process) (string, error) {
		if child.Signals().Get(sig.SIGUSR1).Kind == sig.ActHandler {
			return "yes (stale ptr)", nil
		}
		return "reset", nil
	}, nil
}

func probeOffsets(k *kernel.Kernel, parent *kernel.Process, _ core.Method) (t1Observe, error) {
	pof, err := t1InstallFile(k, parent, "hello world", false, 7)
	if err != nil {
		return nil, err
	}
	return func(child *kernel.Process) (string, error) {
		cof, err := child.FDs().Get(7)
		if err != nil {
			return "not inherited", nil
		}
		// Advance the child's copy; the parent observes it iff the
		// description is shared.
		if _, err := cof.Seek(5, vfs.SeekSet); err != nil {
			return "", err
		}
		if pof.Pos() == 5 {
			return "yes (shared)", nil
		}
		return "independent", nil
	}, nil
}

func probeO1() ([]string, error) {
	var cells []string
	for _, m := range t1Methods {
		k, err := t1Kernel()
		if err != nil {
			return nil, err
		}
		small, err := buildParent(k, "small", 1*MiB, false)
		if err != nil {
			return nil, err
		}
		big, err := buildParent(k, "big", 128*MiB, false)
		if err != nil {
			return nil, err
		}
		warm := func(p *kernel.Process) error {
			_, e := core.MeasureCreation(k, p, m, "/bin/true")
			return e
		}
		if err := warm(small); err != nil {
			return nil, err
		}
		if err := warm(big); err != nil {
			return nil, err
		}
		tSmall, err := core.MeasureCreation(k, small, m, "/bin/true")
		if err != nil {
			return nil, err
		}
		tBig, err := core.MeasureCreation(k, big, m, "/bin/true")
		if err != nil {
			return nil, err
		}
		ratio := float64(tBig) / float64(tSmall)
		cell := "yes"
		if ratio > 2 {
			cell = fmt.Sprintf("NO (%.0fx at 128x size)", ratio)
		}
		cells = append(cells, cell)
		k.DestroyProcess(small)
		k.DestroyProcess(big)
	}
	return cells, nil
}

// probeThreadSafe runs the VM deadlock demo for fork and its spawn
// control; vfork shares fork's hazard (same image capture) and the
// builder shares spawn's safety (fresh image) — both derived from the
// same pair of programs since the hazard is about what the child's
// image contains.
func probeThreadSafe() ([]string, error) {
	runDemo := func(prog string) (bool, error) {
		var out bytes.Buffer
		k := newKernel(kernel.Options{RAMBytes: 1 * GiB, ConsoleOut: &out})
		if err := ulib.InstallAll(k); err != nil {
			return false, err
		}
		if _, err := k.BootInit("/bin/"+prog, []string{prog}); err != nil {
			return false, err
		}
		err := k.Run(kernel.RunLimits{MaxInstructions: 10_000_000})
		var dl *kernel.DeadlockError
		if errors.As(err, &dl) {
			return false, nil // deadlocked ⇒ not safe
		}
		if err != nil {
			return false, err
		}
		return true, nil
	}
	forkSafe, err := runDemo("threads_deadlock")
	if err != nil {
		return nil, err
	}
	spawnSafe, err := runDemo("threads_spawn")
	if err != nil {
		return nil, err
	}
	cell := func(safe bool) string {
		if safe {
			return "yes"
		}
		return "NO (deadlock)"
	}
	return []string{cell(forkSafe), cell(forkSafe), cell(spawnSafe), cell(spawnSafe)}, nil
}

func probeCommit() ([]string, error) {
	var cells []string
	for _, m := range t1Methods {
		k := newKernel(kernel.Options{RAMBytes: 256 * MiB, Commit: mem.CommitStrict})
		if err := ulib.Install(k, "true", "/bin/true"); err != nil {
			return nil, err
		}
		parent, err := buildParent(k, "p", 160*MiB, false)
		if err != nil {
			return nil, err
		}
		child, _, err := core.CreateChild(k, parent, m, "/bin/true", []string{"true"})
		switch {
		case err == nil:
			cells = append(cells, "no")
			k.DestroyProcess(child)
		default:
			cells = append(cells, "YES (ENOMEM)")
		}
		k.DestroyProcess(parent)
	}
	return cells, nil
}
