package experiments

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/errno"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/ulib"
	"repro/sim/load"
)

// ---------------------------------------------------------------
// E3 — the COW tax (§4.4): after a fork, writes by either side fault
// and copy, so both processes pay for memory they already "owned".
// ---------------------------------------------------------------

// CowTaxResult reports per-page write cost in three regimes.
type CowTaxResult struct {
	Pages            uint64
	PreForkPerPage   cost.Ticks // rewrite of private resident memory
	ParentPerPage    cost.Ticks // same rewrite immediately after fork
	ChildPerPage     cost.Ticks // the child writing its inherited set
	PageCopiesParent uint64
}

// CowTax measures E3 with a 64 MiB working set.
func CowTax() (*CowTaxResult, error) {
	const size = 64 * MiB
	k := newKernel(kernel.Options{RAMBytes: 4 * size})
	parent, err := buildParent(k, "p", size, false)
	if err != nil {
		return nil, err
	}
	vma := parent.Space().VMAs()[0]
	pages := vma.Pages()
	res := &CowTaxResult{Pages: pages}

	rewrite := func(p *kernel.Process) (cost.Ticks, error) {
		t0 := k.Now()
		if err := p.Space().Touch(vma.Start, size, addrspace.AccessWrite); err != nil {
			return 0, err
		}
		return k.Now() - t0, nil
	}

	pre, err := rewrite(parent)
	if err != nil {
		return nil, err
	}
	res.PreForkPerPage = pre / cost.Ticks(pages)

	child, err := k.Fork(parent)
	if err != nil {
		return nil, err
	}
	copies := k.Meter().PageCopies
	par, err := rewrite(parent)
	if err != nil {
		return nil, err
	}
	res.ParentPerPage = par / cost.Ticks(pages)
	res.PageCopiesParent = k.Meter().PageCopies - copies

	ch, err := rewrite(child)
	if err != nil {
		return nil, err
	}
	res.ChildPerPage = ch / cost.Ticks(pages)

	k.DestroyProcess(child)
	k.DestroyProcess(parent)
	return res, nil
}

// Render formats E3.
func (r *CowTaxResult) Render() string {
	rows := [][]string{
		{"write pass", "per-page cost"},
		{"before fork (resident, writable)", r.PreForkPerPage.String()},
		{"parent after fork (COW break+copy)", r.ParentPerPage.String()},
		{"child after fork (reclaim or copy)", r.ChildPerPage.String()},
	}
	return fmt.Sprintf("E3: copy-on-write tax over %d pages (%d frames copied by parent)\n",
		r.Pages, r.PageCopiesParent) + renderTable(rows)
}

// ---------------------------------------------------------------
// E4 — huge pages (§4.4/§4.5): 2 MiB mappings divide the number of
// PTEs fork must copy by 512, but fork stays Θ(size).
// ---------------------------------------------------------------

// HugePages sweeps fork+exec latency for 4 KiB and 2 MiB parents
// from 2 MiB up to maxBytes, with the PTEs each creation copies.
func HugePages(maxBytes uint64) (*Sweep, error) {
	s := &Sweep{head: "E4: fork+exec with 4KiB vs 2MiB pages (huge pages mitigate, fork stays Θ(size))\n"}
	for _, size := range sizeSweep(2*MiB, maxBytes) {
		small, huge := creations(size, false, core.MethodForkExec), creations(size, true, core.MethodForkExec)
		s.rows = append(s.rows, append(small, huge...))
	}
	ptes := func(c *creation) string { return fmt.Sprint(c.ptes) }
	s.cols = []column{
		parentSize,
		creationCol("4KiB fork+exec", 0, us),
		creationCol("PTEs", 0, ptes),
		creationCol("2MiB fork+exec", 1, us),
		creationCol("PTEs", 1, ptes),
		{"speedup", func(r []cell) string { return times(r[0].create, r[1].create) }},
	}
	return s.run()
}

// ---------------------------------------------------------------
// E5 — overcommit (§4.6): forking a big process either fails up front
// (strict commit) or sets up a later OOM kill (heuristic overcommit).
// ---------------------------------------------------------------

// OvercommitOutcome is one cell of the E5 matrix.
type OvercommitOutcome struct {
	Policy     mem.CommitPolicy
	ParentFrac float64 // parent working set as a fraction of RAM
	ForkOK     bool
	ChildTouch string // "ok", "oom", "-" (no fork)
}

// OvercommitResult is E5.
type OvercommitResult struct {
	RAM      uint64
	Outcomes []OvercommitOutcome
}

// Overcommit runs the policy × size matrix on a 256 MiB machine.
func Overcommit() (*OvercommitResult, error) {
	const ram = 256 * MiB
	res := &OvercommitResult{RAM: ram}
	for _, pol := range []mem.CommitPolicy{mem.CommitStrict, mem.CommitHeuristic} {
		for _, frac := range []float64{0.25, 0.40, 0.60} {
			k := newKernel(kernel.Options{RAMBytes: ram, Commit: pol})
			size := uint64(float64(ram) * frac)
			size &^= mem.PageSize - 1
			parent, err := buildParent(k, "p", size, false)
			if err != nil {
				return nil, err
			}
			out := OvercommitOutcome{Policy: pol, ParentFrac: frac, ChildTouch: "-"}
			child, err := k.Fork(parent)
			if err == nil {
				out.ForkOK = true
				vma := parent.Space().VMAs()[0]
				terr := child.Space().Touch(vma.Start, size, addrspace.AccessWrite)
				switch {
				case terr == nil:
					out.ChildTouch = "ok"
				case errors.Is(terr, errno.ENOMEM):
					out.ChildTouch = "OOM-KILL"
				default:
					return nil, terr
				}
				k.DestroyProcess(child)
			}
			k.DestroyProcess(parent)
			res.Outcomes = append(res.Outcomes, out)
		}
	}
	return res, nil
}

// Render formats E5.
func (r *OvercommitResult) Render() string {
	rows := [][]string{{"policy", "parent/RAM", "fork", "child touches all"}}
	for _, o := range r.Outcomes {
		forkCell := "ENOMEM"
		if o.ForkOK {
			forkCell = "ok"
		}
		rows = append(rows, []string{
			o.Policy.String(), fmt.Sprintf("%.0f%%", o.ParentFrac*100), forkCell, o.ChildTouch,
		})
	}
	return fmt.Sprintf("E5: fork of a large process, RAM=%s (strict fails early; heuristic OOM-kills late)\n",
		load.HumanBytes(r.RAM)) + renderTable(rows)
}

// ---------------------------------------------------------------
// E6 — composition failures (§4.2), executed on the VM.
// ---------------------------------------------------------------

// ComposeCase is one demo outcome.
type ComposeCase struct {
	Name     string
	Expected string
	Got      string
	Pass     bool
}

// ComposeResult is E6.
type ComposeResult struct {
	Cases []ComposeCase
}

// Compose runs the three §4.2 demonstrations.
func Compose() (*ComposeResult, error) {
	res := &ComposeResult{}

	// 1. Buffered stdio duplicated by fork.
	{
		var out bytes.Buffer
		k := newKernel(kernel.Options{ConsoleOut: &out})
		if err := ulib.InstallAll(k); err != nil {
			return nil, err
		}
		if _, err := k.BootInit("/bin/stdio_fork", []string{"stdio_fork"}); err != nil {
			return nil, err
		}
		if err := k.Run(kernel.RunLimits{MaxInstructions: 5_000_000}); err != nil {
			return nil, err
		}
		want := "unflushed;unflushed;"
		res.Cases = append(res.Cases, ComposeCase{
			Name:     "stdio buffer duplicated",
			Expected: want, Got: out.String(), Pass: out.String() == want,
		})
	}

	// 2. Shared file offset.
	{
		k := newKernel(kernel.Options{})
		if err := ulib.InstallAll(k); err != nil {
			return nil, err
		}
		if _, err := k.BootInit("/bin/offset_fork", []string{"offset_fork"}); err != nil {
			return nil, err
		}
		if err := k.Run(kernel.RunLimits{MaxInstructions: 5_000_000}); err != nil {
			return nil, err
		}
		got := ""
		if ino, err := k.FS().Resolve(nil, "/tmp/offset_fork"); err == nil {
			got = string(ino.Data())
		}
		res.Cases = append(res.Cases, ComposeCase{
			Name:     "file offset shared with child",
			Expected: "BA", Got: got, Pass: got == "BA",
		})
	}

	// 3. fork in a threaded program deadlocks; spawn does not.
	for _, c := range []struct {
		prog     string
		name     string
		deadlock bool
	}{
		{"threads_deadlock", "fork with held lock deadlocks", true},
		{"threads_spawn", "spawn with held lock completes", false},
	} {
		var out bytes.Buffer
		k := newKernel(kernel.Options{ConsoleOut: &out})
		if err := ulib.InstallAll(k); err != nil {
			return nil, err
		}
		if _, err := k.BootInit("/bin/"+c.prog, []string{c.prog}); err != nil {
			return nil, err
		}
		err := k.Run(kernel.RunLimits{MaxInstructions: 10_000_000})
		var dl *kernel.DeadlockError
		gotDL := errors.As(err, &dl)
		if err != nil && !gotDL {
			return nil, err
		}
		got, want := "completed", "completed"
		if gotDL {
			got = "deadlock"
		}
		if c.deadlock {
			want = "deadlock"
		}
		res.Cases = append(res.Cases, ComposeCase{
			Name: c.name, Expected: want, Got: got, Pass: got == want,
		})
	}
	return res, nil
}

// Render formats E6.
func (r *ComposeResult) Render() string {
	rows := [][]string{{"demonstration", "expected", "observed", "pass"}}
	for _, c := range r.Cases {
		p := "✓"
		if !c.Pass {
			p = "FAIL"
		}
		rows = append(rows, []string{c.Name, c.Expected, c.Got, p})
	}
	return "E6: §4.2 composition failures, executed\n" + renderTable(rows)
}

// ---------------------------------------------------------------
// E7 — creation throughput (fork doesn't scale with parent size;
// spawn and cross-process construction do; user-space fork emulation
// is the worst of all worlds).
// ---------------------------------------------------------------

// scaleMethods are E7's lines, in column order. The emulated fork
// comes last, so a row past 64 MiB can stop short of it.
var scaleMethods = []core.Method{
	core.MethodForkExec, core.MethodSpawn, core.MethodBuilder, core.MethodEmulatedForkExec,
}

// Scale sweeps creation throughput from 1 MiB up to maxBytes. The
// emulated-fork line is capped at 64 MiB (it copies bytes through user
// space and is painfully, intentionally slow).
func Scale(maxBytes uint64) (*Sweep, error) {
	s := &Sweep{head: "E7: creations per virtual second vs parent size\n", cols: []column{parentSize}}
	for _, size := range sizeSweep(MiB, maxBytes) {
		methods := scaleMethods
		if size > 64*MiB {
			methods = methods[:len(methods)-1]
		}
		s.rows = append(s.rows, creations(size, false, methods...))
	}
	perSecond := func(c *creation) string { return fmt.Sprintf("%.0f", 1e9/float64(c.virt)) }
	for i, m := range scaleMethods {
		s.cols = append(s.cols, creationCol(m.String()+" /s", i, perSecond))
	}
	return s.run()
}
