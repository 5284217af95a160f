package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/fault"
	"repro/sim"
	"repro/sim/cluster"
	"repro/sim/fleet"
	"repro/sim/load"
	"repro/sim/metrics"
)

// runMetrics is the `forkbench metrics` subcommand: the retina-style
// metrics plane. It runs one deterministic scenario and renders its
// counters in the Prometheus text exposition format — per-machine
// request and packet/flow counters for a fleet of distributed cells,
// or per-pool/zone counters for a cluster scenario, plus (with
// -trace) the structured trace's event-kind counters from one traced
// command. The output is a pure function of the flags: sim/metrics
// sorts families and samples, so the same invocation always emits the
// same bytes, which is what lets CI freeze invocations as goldens.
func runMetrics(args []string) error {
	fs := flag.NewFlagSet("forkbench metrics", flag.ExitOnError)
	scenario := fs.String("scenario", "netlb", "fleet load scenario ("+scenarioNames(load.Scenarios(), load.Migrate)+")")
	via := fs.String("via", sim.ForkExec.Name(), sim.StrategyNames())
	machines := fs.Int("machines", 2, "fleet size (fleet mode)")
	n := fs.Int("n", 0, "requests per machine (0 = scenario default)")
	heap := fs.String("heap", "64MiB", "per-machine server heap size")
	seed := fs.Uint64("seed", 0, "nonzero runs the fleet's chaos scenario with this fault seed")
	clusterScen := fs.String("cluster", "", "render a cluster scenario instead: "+scenarioNames(cluster.Scenarios()))
	trace := fs.Bool("trace", false, "include trace event-kind counters from one traced command")
	out := fs.String("o", "", "write the metrics to FILE (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("metrics: unexpected argument %q", fs.Arg(0))
	}
	st, err := sim.ParseStrategy(*via)
	if err != nil {
		return err
	}
	heapBytes, err := parseSize(*heap)
	if err != nil {
		return err
	}

	reg := metrics.NewRegistry()
	if *clusterScen != "" {
		cs, err := cluster.ParseScenario(*clusterScen)
		if err != nil {
			return err
		}
		spec, err := cluster.SpecFor(cs, heapBytes)
		if err != nil {
			return err
		}
		rep, err := cluster.Run(spec)
		if err != nil {
			return err
		}
		clusterMetrics(reg, cs, rep)
	} else {
		loadScen, err := load.ParseScenario(*scenario)
		if err != nil {
			return err
		}
		if *machines < 1 {
			return fmt.Errorf("metrics: -machines %d (want >= 1)", *machines)
		}
		scen := fleet.Uniform
		if *seed != 0 {
			scen = fleet.Chaos
		}
		res, err := fleet.Run(fleet.Spec{
			Machines:       *machines,
			Scenario:       scen,
			Load:           loadScen,
			Via:            st,
			Requests:       *n,
			HeapBytes:      heapBytes,
			FaultSeed:      *seed,
			KeepPerMachine: true,
		})
		if err != nil {
			return err
		}
		fleetMetrics(reg, res)
	}
	if *trace {
		if err := traceMetrics(reg, st, heapBytes); err != nil {
			return err
		}
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = io.WriteString(w, reg.Render())
	return err
}

// fleetMetrics folds a per-machine fleet result into the registry:
// request/creation counters per machine, the network plane's packet,
// byte, drop, timeout, and retry counters, and the fabric's per-flow
// breakdown. Families with nothing to report are never registered, so
// a non-distributed load renders without empty net families.
func fleetMetrics(r *metrics.Registry, res *fleet.Result) {
	r.Gauge("forkbench_run_info", "run configuration; the value is always 1").
		Set(1, "mode", "fleet", "scenario", res.Scenario, "load", res.Load, "strategy", res.Strategy)
	r.Gauge("forkbench_fleet_machines", "fleet size").Set(float64(res.Aggregate.Machines))
	req := r.Counter("forkbench_requests_total", "requests served, per machine")
	creations := r.Counter("forkbench_creations_total", "process creations, per machine")
	vns := r.Gauge("forkbench_virtual_ns", "virtual time across the machine's phases")
	for _, mm := range res.Machines {
		id := strconv.Itoa(mm.Machine)
		var vsum uint64
		for _, ph := range mm.Phases {
			vsum += ph.VirtualNanos
			req.Add(float64(ph.Requests), "machine", id)
			creations.Add(float64(ph.Creations), "machine", id)
			if ph.FailedRequests > 0 {
				r.Counter("forkbench_failed_requests_total", "requests lost to faults or exhausted retries, per machine").
					Add(float64(ph.FailedRequests), "machine", id)
			}
			if ph.NetPacketsSent > 0 {
				pkts := r.Counter("forkbench_net_packets_total", "fabric frames, per machine and direction")
				pkts.Add(float64(ph.NetPacketsSent), "machine", id, "dir", "sent")
				pkts.Add(float64(ph.NetPacketsRecv), "machine", id, "dir", "recv")
				nbytes := r.Counter("forkbench_net_bytes_total", "fabric payload bytes, per machine and direction")
				nbytes.Add(float64(ph.NetBytesSent), "machine", id, "dir", "sent")
				nbytes.Add(float64(ph.NetBytesRecv), "machine", id, "dir", "recv")
			}
			if ph.NetDrops > 0 {
				r.Counter("forkbench_net_drops_total", "frames eaten by the fault schedule, per machine").
					Add(float64(ph.NetDrops), "machine", id)
			}
			if ph.NetTimeouts > 0 {
				r.Counter("forkbench_net_timeouts_total", "client attempts that outlived their deadline, per machine").
					Add(float64(ph.NetTimeouts), "machine", id)
			}
			if ph.NetRetries > 0 {
				r.Counter("forkbench_net_retries_total", "timed-out attempts that were retried, per machine").
					Add(float64(ph.NetRetries), "machine", id)
			}
			for _, fl := range ph.NetFlows {
				kv := []string{
					"machine", id,
					"src", strconv.Itoa(fl.Src),
					"dst", strconv.Itoa(fl.Dst),
					"flow", fl.Flow,
				}
				r.Counter("forkbench_net_flow_packets_total", "fabric frames, per directed flow").
					Add(float64(fl.Packets), kv...)
				r.Counter("forkbench_net_flow_bytes_total", "fabric payload bytes, per directed flow").
					Add(float64(fl.Bytes), kv...)
				if fl.Drops > 0 {
					r.Counter("forkbench_net_flow_drops_total", "dropped frames, per directed flow").
						Add(float64(fl.Drops), kv...)
				}
			}
		}
		vns.Set(float64(vsum), "machine", id)
	}
}

// clusterMetrics folds a cluster report into the registry: per-pool
// serving and population counters, scale-out events per (pool, zone),
// and the warm-up bill the scale-outs paid.
func clusterMetrics(r *metrics.Registry, scen cluster.Scenario, rep *cluster.Report) {
	r.Gauge("forkbench_run_info", "run configuration; the value is always 1").
		Set(1, "mode", "cluster", "scenario", string(scen))
	r.Gauge("forkbench_cluster_zones", "availability zones").Set(float64(rep.Zones))
	served := r.Counter("forkbench_cluster_served_total", "requests served, per pool")
	sloMet := r.Counter("forkbench_cluster_slo_met_total", "served requests inside the SLO, per pool")
	booted := r.Gauge("forkbench_cluster_machines_booted", "machines the pool ever ran")
	peak := r.Gauge("forkbench_cluster_peak_machines", "pool population high-water mark")
	warm := r.Counter("forkbench_cluster_warmup_pte_copies_total", "PTE copies warming the pool's machines")
	for _, p := range rep.Pools {
		served.Add(float64(p.Served), "pool", p.Pool)
		sloMet.Add(float64(p.SLOMet), "pool", p.Pool)
		booted.Set(float64(p.MachinesBooted), "pool", p.Pool)
		peak.Set(float64(p.PeakMachines), "pool", p.Pool)
		warm.Add(float64(p.WarmupPTECopies), "pool", p.Pool)
		if p.Failed > 0 {
			r.Counter("forkbench_cluster_failed_total", "requests lost, per pool").
				Add(float64(p.Failed), "pool", p.Pool)
		}
		if p.MachinesKilled > 0 {
			r.Counter("forkbench_cluster_machines_killed_total", "machines the fault schedule killed, per pool").
				Add(float64(p.MachinesKilled), "pool", p.Pool)
		}
		if len(p.ScaleOuts) > 0 {
			latency := r.Gauge("forkbench_cluster_scale_out_latency_ns", "scale-out latency, per pool and statistic")
			latency.Set(float64(p.MeanScaleOutNanos), "pool", p.Pool, "stat", "mean")
			latency.Set(float64(p.MaxScaleOutNanos), "pool", p.Pool, "stat", "max")
			for _, so := range p.ScaleOuts {
				r.Counter("forkbench_cluster_scale_outs_total", "scale-out events, per pool and zone").
					Add(1, "pool", p.Pool, "zone", strconv.Itoa(so.Zone))
			}
		}
	}
}

// traceMetrics runs one traced command (echo through the selected
// strategy from a dirty 1 MiB parent, like `forkbench trace`) and
// counts its structured trace events by kind.
func traceMetrics(r *metrics.Registry, st sim.Strategy, heapBytes uint64) error {
	if heapBytes > 1<<20 {
		// The trace section is a fixed, cheap probe: a big -heap
		// configures the fleet machines, not this command.
		heapBytes = 1 << 20
	}
	sys, err := sim.NewSystem(sim.WithTrace())
	if err != nil {
		return err
	}
	if err := sys.DirtyHost(heapBytes, false); err != nil {
		return err
	}
	cmd := sys.Command("echo", "hello", "road").Via(st)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Run(); err != nil {
		return err
	}
	ev := r.Counter("forkbench_trace_events_total", "structured trace events from one traced command, by kind")
	for _, e := range sys.Trace().Events() {
		ev.Add(1, "kind", eventKindName(e.Kind), "strategy", st.String())
	}
	return nil
}

// eventKindName renders a trace event kind as a stable label value.
func eventKindName(k fault.EventKind) string {
	switch k {
	case fault.EvSysEnter:
		return "sys_enter"
	case fault.EvSysExit:
		return "sys_exit"
	case fault.EvSched:
		return "sched"
	case fault.EvShootdown:
		return "tlb_shootdown"
	case fault.EvFault:
		return "fault_inject"
	case fault.EvProcNew:
		return "proc_new"
	case fault.EvProcExit:
		return "proc_exit"
	case fault.EvExec:
		return "exec"
	}
	return fmt.Sprintf("event_%d", int(k))
}
