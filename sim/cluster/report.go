package cluster

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/sim/load"
)

// ScaleOut is one scale-out event: the autoscaler decided at the end
// of DecisionStep, the machine warmed up on its own clock, and it
// took traffic from ReadyStep. WarmupNanos is that warm-up as the
// machine measured it — boot, heap dirtying, worker-pool creation.
// LatencyNanos is the gap, the warm-up rounded up to whole reconcile
// steps — the cost a surge pays before new capacity helps.
type ScaleOut struct {
	Machine      int    `json:"machine"`
	Zone         int    `json:"zone"`
	DecisionStep int    `json:"decision_step"`
	ReadyStep    int    `json:"ready_step"`
	WarmupNanos  uint64 `json:"warmup_ns"`
	LatencyNanos uint64 `json:"latency_ns"`
}

// PoolReport is one pool's deterministic outcome.
type PoolReport struct {
	Pool     string `json:"pool"`
	Strategy string `json:"strategy"`
	CPUs     int    `json:"cpus"`
	// HeapBytes is the heap each of the pool's machines mapped:
	// PoolSpec.HeapBytes rounded up to the page, as warm-up maps it.
	HeapBytes uint64 `json:"heap_bytes"`
	Workers   int    `json:"workers,omitempty"`

	// Served/Failed are requests completed and lost; SLOMet of the
	// served finished within the SLO, and SLORate is the fraction.
	Served  uint64  `json:"served"`
	Failed  uint64  `json:"failed,omitempty"`
	SLOMet  uint64  `json:"slo_met"`
	SLORate float64 `json:"slo_rate"`

	// MeanLatencyNanos/MaxLatencyNanos are request latencies at
	// reconcile-step granularity (arrival step to completion step).
	MeanLatencyNanos uint64 `json:"mean_latency_ns"`
	MaxLatencyNanos  uint64 `json:"max_latency_ns"`

	// MachinesBooted counts every machine the pool ever ran;
	// Peak/FinalMachines the population's high-water mark and the
	// count left when the run ended (before the final drain).
	MachinesBooted int `json:"machines_booted"`
	PeakMachines   int `json:"peak_machines"`
	FinalMachines  int `json:"final_machines"`

	// ScaleOuts are the pool's scale-out events; the Mean/Max roll up
	// their latencies — the headline fork-vs-spawn comparison — and
	// MeanWarmupNanos their unrounded warm-ups.
	ScaleOuts         []ScaleOut `json:"scale_outs,omitempty"`
	MeanScaleOutNanos uint64     `json:"mean_scale_out_ns,omitempty"`
	MaxScaleOutNanos  uint64     `json:"max_scale_out_ns,omitempty"`
	MeanWarmupNanos   uint64     `json:"mean_warmup_ns,omitempty"`

	ScaleDowns     int `json:"scale_downs,omitempty"`
	MachinesKilled int `json:"machines_killed,omitempty"`

	// WarmupPTECopies totals the page-table entries copied warming
	// the pool's machines — Θ(heap × workers) per machine under fork,
	// ~0 under spawn. PeakMachineRSSBytes is the largest single
	// machine's resident high-water mark.
	WarmupPTECopies     uint64 `json:"warmup_pte_copies"`
	PeakMachineRSSBytes uint64 `json:"peak_machine_rss_bytes"`
}

// Report is one cluster run. Everything marshalled is a pure function
// of the Spec; host-side measurements stay out of the JSON, so the
// report is byte-stable at any GOMAXPROCS.
type Report struct {
	// Zones, TargetUtilization and SLONanos echo the autoscaler's
	// fixed policy; the SLO is three reconcile steps.
	Zones               int     `json:"zones"`
	TargetUtilization   float64 `json:"target_utilization"`
	ReconcileEveryNanos uint64  `json:"reconcile_every_ns"`
	SLONanos            uint64  `json:"slo_ns"`
	SharedStream        bool    `json:"shared_stream,omitempty"`
	Steps               int     `json:"steps"`
	Traffic             []Phase `json:"traffic"`

	Pools []PoolReport `json:"pools"`

	// Trace is the reconcile loop's event log (ready/kill/scale-up/
	// scale-down), one line per event in decision order — the
	// determinism gate byte-compares it.
	Trace []string `json:"trace"`

	// Host-side: wall clock and worker count, excluded from JSON.
	HostElapsed time.Duration `json:"-"`
	HostWorkers int           `json:"-"`
}

// report assembles the Report from the engine's final state.
func (e *engine) report(steps int) *Report {
	rep := &Report{
		Zones:               zones,
		TargetUtilization:   targetUtilization,
		ReconcileEveryNanos: e.spec.ReconcileEveryNanos,
		SLONanos:            sloSteps * e.dt,
		SharedStream:        e.spec.SharedStream,
		Steps:               steps,
		Traffic:             e.spec.Traffic,
		Trace:               e.trace,
	}
	if rep.Trace == nil {
		rep.Trace = []string{}
	}
	for _, p := range e.pools {
		pr := PoolReport{
			Pool:                p.spec.Name,
			Strategy:            p.spec.Via.String(),
			CPUs:                p.spec.CPUs,
			HeapBytes:           e.serverConfig(p.spec).Shape().MappedHeapBytes(),
			Workers:             p.spec.Workers,
			Served:              p.served,
			Failed:              p.failed,
			SLOMet:              p.sloMet,
			MaxLatencyNanos:     p.latencyMax,
			MachinesBooted:      p.booted,
			PeakMachines:        p.peakMachines,
			FinalMachines:       len(p.machines),
			ScaleOuts:           p.scaleOuts,
			ScaleDowns:          p.scaleDowns,
			MachinesKilled:      p.killed,
			WarmupPTECopies:     p.warmupPTEs,
			PeakMachineRSSBytes: p.peakMachineRSS,
		}
		if p.served > 0 {
			pr.SLORate = float64(p.sloMet) / float64(p.served)
			pr.MeanLatencyNanos = p.latencySum / p.served
		}
		if n := uint64(len(p.scaleOuts)); n > 0 {
			var sum, warm uint64
			for _, so := range p.scaleOuts {
				sum += so.LatencyNanos
				warm += so.WarmupNanos
				if so.LatencyNanos > pr.MaxScaleOutNanos {
					pr.MaxScaleOutNanos = so.LatencyNanos
				}
			}
			pr.MeanScaleOutNanos = sum / n
			pr.MeanWarmupNanos = warm / n
		}
		rep.Pools = append(rep.Pools, pr)
	}
	return rep
}

// JSON renders the byte-stable cluster report: same Spec, same bytes,
// at any host parallelism.
func (r *Report) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Render formats the report for the CLI: the pool table, then the
// reconcile trace.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d zones, target %.0f%%, step %.1fms, SLO %.1fms, %d steps\n",
		r.Zones, 100*r.TargetUtilization, float64(r.ReconcileEveryNanos)/1e6, float64(r.SLONanos)/1e6, r.Steps)
	fmt.Fprintf(&b, "  %-10s %-8s %-5s %-8s %-9s %-7s %-12s %-12s %-10s\n",
		"pool", "via", "cpus", "heap", "served", "SLO%", "scale-out", "mean-lat", "machines")
	for _, p := range r.Pools {
		scaleOut := "-"
		if p.MeanScaleOutNanos > 0 {
			scaleOut = fmt.Sprintf("%.1fms", float64(p.MeanScaleOutNanos)/1e6)
		}
		machines := fmt.Sprintf("%d/%d/%d", p.MachinesBooted, p.PeakMachines, p.FinalMachines)
		fmt.Fprintf(&b, "  %-10s %-8s %-5d %-8s %-9d %-7.1f %-12s %-12s %-10s\n",
			p.Pool, p.Strategy, p.CPUs, load.HumanBytes(p.HeapBytes),
			p.Served, 100*p.SLORate, scaleOut,
			fmt.Sprintf("%.1fms", float64(p.MeanLatencyNanos)/1e6), machines)
		if p.MachinesKilled > 0 || p.ScaleDowns > 0 {
			fmt.Fprintf(&b, "  %10s  %d scale-out(s), %d scale-down(s), %d killed\n",
				"", len(p.ScaleOuts), p.ScaleDowns, p.MachinesKilled)
		}
	}
	if len(r.Trace) > 0 {
		fmt.Fprintf(&b, "  reconcile trace:\n")
		for _, line := range r.Trace {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}
