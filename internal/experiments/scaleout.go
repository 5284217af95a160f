package experiments

import (
	"fmt"

	"repro/sim/cluster"
	"repro/sim/load"
)

// ScaleOutClaim runs E12 over the heap ladder up to maxHeap. A row is
// one cluster.Run racing both pools (same traffic, autoscaler and
// balancer seed), a pure function of its Spec at any host parallelism.
//
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
// new capacity boots. Scale-out latency counts whole reconcile steps,
// which can hide the Θ(heap) term between two heap sizes, so the
// machines' unrounded warm-up is reported beside it.
func ScaleOutClaim(maxHeap uint64) (*Sweep, error) {
	step := cluster.SurgeSpec(maxHeap).ReconcileEveryNanos
	s := &Sweep{head: "E12 — scale-out latency under a traffic surge (cluster autoscaler, fork pool vs spawn pool):\n" +
		"both pools chase the same spike; a scale-up machine serves only once it is warm, and under\n" +
		"fork warming pays heap dirtying plus Θ(heap) page-table duplication per pool worker — so the\n" +
		"fork pool's new capacity arrives later, and the backlog meanwhile is its missed SLOs.\n" +
		"Scale-out rounds each machine's measured warm-up up to whole " + ms(step) + " reconcile steps; warm-up does not.\n\n"}
	for _, heap := range ladder(maxHeap) {
		spec := cluster.SurgeSpec(heap)
		s.rows = append(s.rows, []cell{{cluster: &spec}})
	}
	s.cols = []column{
		{"heap", func(r []cell) string { return load.HumanBytes(r[0].cluster.Pools[0].HeapBytes) }},
		{"fork scale-out", func(r []cell) string { return ms(forkPool(r).MeanScaleOutNanos) }},
		{"spawn scale-out", func(r []cell) string { return ms(spawnPool(r).MeanScaleOutNanos) }},
		{"fork:spawn", func(r []cell) string { return fmt.Sprintf("%.2fx", scaleOutRatio(r)) }},
		{"fork warm-up", func(r []cell) string { return ms(forkPool(r).MeanWarmupNanos) }},
		{"spawn warm-up", func(r []cell) string { return ms(spawnPool(r).MeanWarmupNanos) }},
		{"warm-up fork:spawn", func(r []cell) string { return fmt.Sprintf("%.2fx", warmupRatio(r)) }},
		{"fork SLO%", func(r []cell) string { return fmt.Sprintf("%.1f%%", 100*forkPool(r).SLORate) }},
		{"spawn SLO%", func(r []cell) string { return fmt.Sprintf("%.1f%%", 100*spawnPool(r).SLORate) }},
		{"fork PTE copies", func(r []cell) string { return fmt.Sprint(forkPool(r).WarmupPTECopies) }},
	}
	return s.run()
}

// forkPool and spawnPool are an E12 row's two pool reports, in
// SurgeSpec's pool order.
func forkPool(r []cell) cluster.PoolReport  { return r[0].cr.Pools[0] }
func spawnPool(r []cell) cluster.PoolReport { return r[0].cr.Pools[1] }

// scaleOutRatio is fork's mean scale-out latency over spawn's — the
// headline number (Θ(heap) warm-up vs flat).
func scaleOutRatio(r []cell) float64 {
	return ratio(float64(forkPool(r).MeanScaleOutNanos), float64(spawnPool(r).MeanScaleOutNanos))
}

// warmupRatio is the same ratio before the warm-ups are rounded to
// whole reconcile steps.
func warmupRatio(r []cell) float64 {
	return ratio(float64(forkPool(r).MeanWarmupNanos), float64(spawnPool(r).MeanWarmupNanos))
}
