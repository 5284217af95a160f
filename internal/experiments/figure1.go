package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/ulib"
	"repro/sim/load"
)

// Fig1Config parameterises Figure 1.
type Fig1Config struct {
	// MinBytes/MaxBytes bound the parent-size sweep (doubling).
	// Defaults: 1 MiB … 1 GiB.
	MinBytes, MaxBytes uint64
	// Reps per point after one warm-up (0 selects 5; negative is an
	// error).
	Reps int
	// RAMBytes sizes the machine (default: 4×MaxBytes, ≥4 GiB).
	RAMBytes uint64
	// IncludeEager adds the 1970s eager-copy fork line (ablation 1).
	IncludeEager bool
}

func (c *Fig1Config) fill() {
	if c.MinBytes == 0 {
		c.MinBytes = 1 * MiB
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 1 * GiB
	}
	if c.Reps == 0 {
		c.Reps = 5
	}
	if c.RAMBytes == 0 {
		c.RAMBytes = 4 * c.MaxBytes
		if c.RAMBytes < 4*GiB {
			c.RAMBytes = 4 * GiB
		}
	}
}

// Fig1Point is one (method, size) measurement.
type Fig1Point struct {
	Method    core.Method
	SizeBytes uint64
	Mean      cost.Ticks
	Min, Max  cost.Ticks
	// PTECopies is the page-table entries copied per creation
	// (explains *why* fork scales).
	PTECopies uint64
}

// Fig1Result is the full figure.
type Fig1Result struct {
	Config Fig1Config
	Points []Fig1Point
}

// Figure1 reproduces the paper's Figure 1: the time to create a
// minimal child via fork+exec, vfork+exec, and posix_spawn from
// parents of growing address-space size, plus a fork+exec line over
// 2 MiB huge pages.
func Figure1(cfg Fig1Config) (*Fig1Result, error) {
	if cfg.Reps < 0 {
		return nil, fmt.Errorf("figure1: Reps %d: want >= 0 (0 selects the default)", cfg.Reps)
	}
	cfg.fill()
	res := &Fig1Result{Config: cfg}

	methods := []core.Method{core.MethodForkExec, core.MethodVforkExec, core.MethodSpawn}
	if cfg.IncludeEager {
		methods = append(methods, core.MethodForkEagerExec)
	}

	for _, size := range sizeSweep(cfg.MinBytes, cfg.MaxBytes) {
		// Plain 4 KiB parent for the standard lines.
		pts, err := fig1Measure(cfg, size, false, methods)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pts...)
		// Huge-page parent for the fork+exec(2 MiB) line.
		if size >= 2*MiB {
			hp, err := fig1Measure(cfg, size, true, []core.Method{core.MethodForkExec})
			if err != nil {
				return nil, err
			}
			for i := range hp {
				hp[i].Method = methodForkHuge
			}
			res.Points = append(res.Points, hp...)
		}
	}
	return res, nil
}

// methodForkHuge labels the huge-page fork line in results. It is not
// a core.Method a caller can request directly (the page size is a
// property of the parent, not the creation call).
const methodForkHuge core.Method = 100

func methodName(m core.Method) string {
	if m == methodForkHuge {
		return "fork+exec (2MiB pages)"
	}
	return m.String()
}

func fig1Measure(cfg Fig1Config, size uint64, huge bool, methods []core.Method) ([]Fig1Point, error) {
	k := newKernel(kernel.Options{RAMBytes: cfg.RAMBytes})
	if err := ulib.Install(k, "true", "/bin/true"); err != nil {
		return nil, err
	}
	parent, err := buildParent(k, "parent", size, huge)
	if err != nil {
		return nil, err
	}
	var out []Fig1Point
	for _, m := range methods {
		// Warm-up: the first fork additionally downgrades the
		// parent's PTEs to read-only; steady state is what the
		// paper plots.
		if _, err := core.MeasureCreation(k, parent, m, "/bin/true"); err != nil {
			return nil, fmt.Errorf("figure1 %v/%s warmup: %w", m, load.HumanBytes(size), err)
		}
		pt := Fig1Point{Method: m, SizeBytes: size, Min: ^cost.Ticks(0)}
		var sum cost.Ticks
		meter := k.Meter()
		meter.ResetCounters()
		for r := 0; r < cfg.Reps; r++ {
			el, err := core.MeasureCreation(k, parent, m, "/bin/true")
			if err != nil {
				return nil, fmt.Errorf("figure1 %v/%s: %w", m, load.HumanBytes(size), err)
			}
			sum += el
			if el < pt.Min {
				pt.Min = el
			}
			if el > pt.Max {
				pt.Max = el
			}
		}
		pt.Mean = sum / cost.Ticks(cfg.Reps)
		pt.PTECopies = meter.PTECopies / uint64(cfg.Reps)
		out = append(out, pt)
	}
	return out, nil
}

// Render formats the figure as a per-size table, one column per
// method, values in virtual microseconds.
func (r *Fig1Result) Render() string {
	methods := []core.Method{}
	seen := map[core.Method]bool{}
	for _, p := range r.Points {
		if !seen[p.Method] {
			seen[p.Method] = true
			methods = append(methods, p.Method)
		}
	}
	head := []string{"parent size"}
	for _, m := range methods {
		head = append(head, methodName(m)+" µs")
	}
	rows := [][]string{head}
	for _, size := range sizeSweep(r.Config.MinBytes, r.Config.MaxBytes) {
		row := []string{load.HumanBytes(size)}
		for _, m := range methods {
			cell := "-"
			for _, p := range r.Points {
				if p.Method == m && p.SizeBytes == size {
					cell = fmt.Sprintf("%.1f", p.Mean.Micros())
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return "Figure 1: process-creation latency vs parent size (virtual µs)\n" + renderTable(rows)
}

// Crossover reports the smallest parent size at which spawn beats
// fork+exec — the paper's ~1 MiB crossover claim.
func (r *Fig1Result) Crossover() (uint64, bool) {
	for _, size := range sizeSweep(r.Config.MinBytes, r.Config.MaxBytes) {
		var fork, spawn cost.Ticks
		for _, p := range r.Points {
			if p.SizeBytes != size {
				continue
			}
			switch p.Method {
			case core.MethodForkExec:
				fork = p.Mean
			case core.MethodSpawn:
				spawn = p.Mean
			}
		}
		if fork != 0 && spawn != 0 && spawn < fork {
			return size, true
		}
	}
	return 0, false
}
