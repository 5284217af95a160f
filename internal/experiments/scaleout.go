package experiments

import (
	"fmt"

	"repro/sim/cluster"
	"repro/sim/load"
)

// ---------------------------------------------------------------
// E12 — the paper's claim at the autoscaler layer. Per-machine (E8)
// fork makes a big server slow; per-fleet (E10) it makes every rolling
// restart repay the warm-up tax. The cluster layer is where clouds
// actually feel it: when a traffic surge forces a pool to scale out, a
// new machine is useful only once it is warm, and under fork warming
// means heap dirtying plus Θ(heap) page-table duplication per pool
// worker. The experiment races identical fork and spawn pools against
// the same surge (sim/cluster's surge scenario) over a server-heap
// ladder and reports measured scale-out latency — decision step to
// first served request — and the SLO rate each pool holds while its
// new capacity boots.
// ---------------------------------------------------------------

// ScaleOutPoint is one heap size's fork-vs-spawn surge comparison.
type ScaleOutPoint struct {
	HeapBytes uint64

	// Fork and Spawn are the two pools' reports from one cluster run
	// (same traffic, same autoscaler, same balancer seed).
	Fork  cluster.PoolReport
	Spawn cluster.PoolReport
}

// Ratio is fork's mean scale-out latency over spawn's — the headline
// number (Θ(heap) warm-up vs flat).
func (p ScaleOutPoint) Ratio() float64 {
	if p.Spawn.MeanScaleOutNanos == 0 {
		return 0
	}
	return float64(p.Fork.MeanScaleOutNanos) / float64(p.Spawn.MeanScaleOutNanos)
}

// ScaleOutResult is E12.
type ScaleOutResult struct {
	Points []ScaleOutPoint
}

// ScaleOutConfig parameterizes ScaleOutClaim; zero fields get defaults.
type ScaleOutConfig struct {
	HeapSizes []uint64 // server-heap ladder (default {4, 16, 64} MiB)
}

// ScaleOutClaim runs E12. Deterministic: each point is one
// cluster.Run, which is a pure function of its Spec at any host
// parallelism.
func ScaleOutClaim(cfg ScaleOutConfig) (*ScaleOutResult, error) {
	if len(cfg.HeapSizes) == 0 {
		cfg.HeapSizes = []uint64{4 * MiB, 16 * MiB, 64 * MiB}
	}
	res := &ScaleOutResult{}
	for _, heap := range cfg.HeapSizes {
		rep, err := cluster.Run(cluster.SurgeSpec(heap))
		if err != nil {
			return nil, fmt.Errorf("scaleoutclaim @%s: %w", load.HumanBytes(heap), err)
		}
		pt := ScaleOutPoint{HeapBytes: heap}
		for _, p := range rep.Pools {
			switch p.Pool {
			case "fork":
				pt.Fork = p
			case "spawn":
				pt.Spawn = p
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render formats E12 as a claim table: scale-out latency and surge SLO
// rate, fork pool vs spawn pool, as the server heap grows.
func (r *ScaleOutResult) Render() string {
	rows := [][]string{{
		"heap",
		"fork scale-out", "spawn scale-out", "fork:spawn",
		"fork SLO%", "spawn SLO%",
		"fork PTE copies",
	}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			load.HumanBytes(p.HeapBytes),
			fmt.Sprintf("%.1fms", float64(p.Fork.MeanScaleOutNanos)/1e6),
			fmt.Sprintf("%.1fms", float64(p.Spawn.MeanScaleOutNanos)/1e6),
			fmt.Sprintf("%.2fx", p.Ratio()),
			fmt.Sprintf("%.1f%%", 100*p.Fork.SLORate),
			fmt.Sprintf("%.1f%%", 100*p.Spawn.SLORate),
			fmt.Sprint(p.Fork.WarmupPTECopies),
		})
	}
	head := "E12 — scale-out latency under a traffic surge (cluster autoscaler, fork pool vs spawn pool):\n" +
		"both pools chase the same spike; a scale-up machine serves only once it is warm, and under\n" +
		"fork warming pays heap dirtying plus Θ(heap) page-table duplication per pool worker — so the\n" +
		"fork pool's new capacity arrives later, and the backlog meanwhile is its missed SLOs.\n\n"
	return head + renderTable(rows)
}
