// Package experiments regenerates every figure and table of the
// evaluation in "A fork() in the road" (HotOS'19), plus the design
// ablations and the claims carried to servers, fleets, clusters and
// the wire. Each experiment is a pure function of its configuration:
// the simulator is deterministic, so repeated runs produce identical
// numbers. Host time is measured by the bench/ module instead; E13
// and E14 timed the host here until bench/ replaced them, and their
// numbers are not reused.
//
// Experiment index (README "Regenerating the paper's evaluation" maps
// each to its paper claim and forkbench command). Figure 1, E4, E7,
// the ablations and E8–E12, E15 and E16 are Sweeps (sweep.go): rows of
// cells that one runner simulates in parallel, rendered by named
// columns. Figure 1, E4, E7 and Ablation 1 sweep creation cells, each
// one timed creation from a dirty parent on its own machine; the
// others sweep load, fleet or cluster cells. Each Sweep takes only
// forkbench's clamped -max. Table 1, E3, E5 and E6 probe sequences and
// programs, not creation points, and keep their own result types.
//
//	Figure1       — process-creation latency vs parent address-space size
//	Table1        — executable semantics matrix: fork vs alternatives
//	CowTax        — E3: post-fork copy-on-write write amplification
//	HugePages     — E4: fork cost with 4 KiB vs 2 MiB mappings
//	Overcommit    — E5: fork of large processes under commit policies
//	Compose       — E6: the §4.2 composition failures, executed
//	Scale         — E7: creation throughput vs parent size per method
//	ServerClaim   — E8: prefork server throughput vs server heap
//	CPUSweep      — E9: fork's snapshot tax vs core count
//	FleetClaim    — E10: the server claim over a rolling-restart fleet
//	ChaosClaim    — E11: survival under memory-pressure fault waves
//	ScaleOutClaim — E12: autoscaler scale-out latency, fork vs spawn pools
//	NetClaim      — E15: a backend restart behind a load balancer
//	MigrateClaim  — E16: live-migration downtime vs heap size
//	Ablations     — COW vs eager fork, and the §8 fork-refusal mitigation
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/addrspace"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// KiB/MiB/GiB sizes.
const (
	KiB = uint64(1) << 10
	MiB = uint64(1) << 20
	GiB = uint64(1) << 30
)

// newKernel builds a quiet kernel for experiments with the ulib
// binaries expected at /bin installed by the caller (see helpers in
// each experiment). Zero RAMBytes/NumCPUs select the conventional
// 4 GiB single-CPU machine; experiment configurations are constants,
// so a validation failure is a bug and panics.
func newKernel(opts kernel.Options) *kernel.Kernel {
	if opts.RAMBytes == 0 {
		opts.RAMBytes = 4 * GiB
	}
	if opts.NumCPUs == 0 {
		opts.NumCPUs = 1
	}
	k, err := kernel.New(opts)
	if err != nil {
		panic(err)
	}
	return k
}

// buildParent creates a synthetic process whose anonymous working set
// is size bytes, write-touched so every page is resident and dirty —
// the "process of size X" on Figure 1's x-axis. With huge=true the
// region uses 2 MiB pages.
func buildParent(k *kernel.Kernel, name string, size uint64, huge bool) (*kernel.Process, error) {
	p := k.NewSynthetic(name, nil)
	if size == 0 {
		return p, nil
	}
	ps := uint64(mem.PageSize)
	if huge {
		ps = mem.HugeSize
	}
	size = (size + ps - 1) &^ (ps - 1)
	vma, err := p.Space().Map(0, size, addrspace.Read|addrspace.Write, addrspace.MapOpts{
		Kind: addrspace.KindAnon, Name: "workset", Huge: huge,
	})
	if err != nil {
		k.DestroyProcess(p)
		return nil, fmt.Errorf("experiments: map %d bytes: %w", size, err)
	}
	if err := p.Space().Touch(vma.Start, size, addrspace.AccessWrite); err != nil {
		k.DestroyProcess(p)
		return nil, fmt.Errorf("experiments: touch: %w", err)
	}
	return p, nil
}

// sizeSweep returns a doubling size series [min, max].
func sizeSweep(min, max uint64) []uint64 {
	var out []uint64
	for s := min; s <= max; s *= 2 {
		out = append(out, s)
	}
	return out
}

// renderTable aligns rows of cells into a text table. The first row is
// the header.
func renderTable(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	width := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, r := range rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
		if ri == 0 {
			for i, w := range width {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
