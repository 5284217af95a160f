package main

import "repro/internal/cost"

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEndDefs are the metrics a user of the simulator sees, reported
// from the untraced run. host_* are host-clock measurements (how fast
// the simulator runs); virt_* are on the simulated machines' virtual
// clock (the paper's reproduction) and repeat exactly.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"host_ops_per_s", "ops/s", "higher"},
	{"host_op_p50_us", "us", "lower"},
	{"host_alloc_kib_per_op", "KiB/op", "lower"},
	{"host_heap_mib", "MiB", "lower"},
	{"virt_op_p50_us", "virt_us", "lower"},
	{"virt_op_p99_us", "virt_us", "lower"},
	{"virt_req_per_vs", "req/virt_s", "higher"},
	{"virt_peak_rss_mib", "virt_MiB", "lower"},
}

// counter indexes the per-layer event counts. They come from the
// machines' cost meters (or the load.Metrics of fleet machines) as
// deltas over the timed phase, so they are free to collect and repeat
// exactly.
type counter int

const (
	cPTECopies counter = iota
	cPTNodes
	cPageFaults
	cTLBShootdowns
	cPageCopies
	cPageZeroes
	cSyscalls
	cInstructions
	cContextSwitches
	cMigratePages
	cNetPackets
	cNetDrops
	cNetRetries
	cLostRequests
	numCounters
)

// counts is one reading of every counter.
type counts [numCounters]uint64

var counterNames = [numCounters]string{
	cPTECopies:       "pagetable.pte_copies_per_op",
	cPTNodes:         "pagetable.nodes_per_op",
	cPageFaults:      "addrspace.page_faults_per_op",
	cTLBShootdowns:   "addrspace.tlb_shootdowns_per_op",
	cPageCopies:      "mem.page_copies_per_op",
	cPageZeroes:      "mem.page_zeroes_per_op",
	cSyscalls:        "kernel.syscalls_per_op",
	cInstructions:    "kernel.instructions_per_op",
	cContextSwitches: "kernel.context_switches_per_op",
	cMigratePages:    "load.migrate_pages_per_op",
	cNetPackets:      "net.packets_per_op",
	cNetDrops:        "net.drops_per_op",
	cNetRetries:      "net.retries_per_op",
	cLostRequests:    "fault.lost_requests_per_op",
}

// addMeter adds a machine's cost-meter counters and dispatch count.
func (c *counts) addMeter(m *cost.Meter, contextSwitches uint64) {
	c[cPTECopies] += m.PTECopies
	c[cPTNodes] += m.PTNodes
	c[cPageFaults] += m.PageFaults
	c[cTLBShootdowns] += m.TLBShootdowns
	c[cPageCopies] += m.PageCopies
	c[cPageZeroes] += m.PageZeroes
	c[cSyscalls] += m.Syscalls
	c[cInstructions] += m.Instructions
	c[cContextSwitches] += contextSwitches
}

func (c counts) sub(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// spanNames are the layer boundaries the benchmark's own code wraps in
// spans. Each reports .host_us_per_op (host self time), .virt_us_per_op
// (virtual self time) and .calls_per_op.
var spanNames = []string{
	"core.create",     // sim.Cmd.Create
	"kernel.start",    // sim.Process.Start
	"kernel.wait",     // sim.Cmd.Wait
	"kernel.fork",     // kernel.Kernel.Fork
	"kernel.destroy",  // kernel.Kernel.DestroyProcess
	"addrspace.touch", // addrspace.Space.Touch
	"load.run",        // load.Templates.Run
	"fleet.worker",    // the fleet.ForEach body
}

// perLayerDefs lists every per-layer metric in report order.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, n := range counterNames {
		defs = append(defs, metricDef{n, "count/op", "lower"})
	}
	for _, n := range spanNames {
		defs = append(defs,
			metricDef{n + ".host_us_per_op", "us/op", "lower"},
			metricDef{n + ".virt_us_per_op", "virt_us/op", "lower"},
			metricDef{n + ".calls_per_op", "calls/op", "lower"})
	}
	for _, p := range probes {
		defs = append(defs,
			metricDef{p.name + ".host_ns_per_call", "ns/call", "lower"},
			metricDef{p.name + ".alloc_b_per_call", "B/call", "lower"})
	}
	return defs
}
