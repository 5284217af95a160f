package load

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/mem"
	"repro/sim"
	"repro/sim/fault"
)

// Scenario names a workload shape. The string form is the CLI name.
type Scenario string

// Scenarios.
const (
	Prefork    Scenario = "prefork"
	Pipeline   Scenario = "pipeline"
	Checkpoint Scenario = "checkpoint"
	ForkStorm  Scenario = "forkstorm"
	SMPServer  Scenario = "smpserver"
	BuildFarm  Scenario = "buildfarm"

	// Distributed scenarios: multi-machine cells over the sim/net
	// fabric (see net.go). NetLB is a load balancer fronting a pool
	// of fork-/spawn-backed servers; KVShard is a shard-per-machine
	// KV service with client retries.
	NetLB   Scenario = "netlb"
	KVShard Scenario = "kvshard"

	// Migrate live-migrates a resident process between two machines
	// over the fabric: iterative pre-copy on the COW dirty tracking,
	// then stop-and-copy of the residue (see migrate.go). Requests is
	// migrations performed, Workers the pre-copy rounds per migration.
	Migrate Scenario = "migrate"
)

// Scenarios lists every workload, in a fixed order.
func Scenarios() []Scenario {
	return []Scenario{Prefork, Pipeline, Checkpoint, ForkStorm, SMPServer, BuildFarm, NetLB, KVShard, Migrate}
}

// ParseScenario maps a CLI name to its Scenario; an unknown name's
// error lists every name Scenarios has.
func ParseScenario(name string) (Scenario, error) {
	var names []string
	for _, s := range Scenarios() {
		if name == string(s) {
			return s, nil
		}
		names = append(names, string(s))
	}
	return "", fmt.Errorf("load: unknown scenario %q (%s)", name, strings.Join(names, "|"))
}

// Config parameterizes one run. The zero value of every field selects
// a sensible default; Scenario defaults to Prefork and Via to
// sim.Spawn (sim's own default).
type Config struct {
	// Scenario selects the workload shape.
	Scenario Scenario

	// Via is the process-creation strategy every child in the
	// scenario is created through.
	Via sim.Strategy

	// CPUs is the simulated CPU count (default 1). Scenarios scale
	// with it: Prefork keeps CPUs requests in flight, ForkStorm's
	// default burst and Pipeline's default volume grow with it, the
	// SMPServer runs one worker thread per CPU, and BuildFarm keeps
	// 2*CPUs jobs in flight.
	CPUs int

	// Requests is the closed-loop unit count: requests drained
	// (Prefork), pipelines built (Pipeline), snapshot cycles
	// (Checkpoint), or waves (ForkStorm).
	Requests int

	// Workers is the pipeline depth (Pipeline, default 3) or the
	// burst size of simultaneously live children (ForkStorm,
	// default 64).
	Workers int

	// Window overrides the closed loop's in-flight request window:
	// how many requests Prefork (default CPUs) or BuildFarm jobs
	// (default 2*CPUs) are live at once. sim/fleet's traffic-surge
	// scenario widens it to model load spikes beyond the machine's
	// steady state.
	Window int

	// HeapBytes is the server's dirty anonymous heap — the paper's
	// "parent of size X" under sustained load (default 64 MiB).
	HeapBytes uint64

	// RAMBytes sizes the machine (default 4×HeapBytes, minimum
	// 1 GiB).
	RAMBytes uint64

	// HugePages backs the heap with 2 MiB mappings.
	HugePages bool

	// Nodes is the distributed scenarios' machine count: backends
	// behind the NetLB balancer (default 2) or KVShard shards
	// (default 3). The single-machine scenarios ignore it.
	Nodes int

	// RequestWorkMiB gives every request of the closed loop (Prefork,
	// BuildFarm, a Server's batches) a private working set: the
	// worker allocates and write-touches this many MiB (the hog
	// program) before exiting, so a request costs CPU and memory
	// beyond its creation. BuildFarm defaults it to 4, a compile
	// job's footprint; elsewhere 0 = no per-request working set.
	RequestWorkMiB int

	// Faults, when non-nil, runs the measured loop in chaos mode:
	// the schedule is installed after warm-up (so setup stays
	// clean), per-request failures are tolerated and counted in
	// Metrics.FailedRequests instead of failing the run, and the
	// driver consults fault.PointKill once per request so kill-wave
	// schedules can crash in-flight workers. Only the failure-
	// tolerant scenarios (currently Prefork) accept it. Schedules
	// are pure functions, so a chaos run is exactly as deterministic
	// as a clean one.
	Faults fault.Schedule
}

// withDefaults returns cfg with every zero field resolved.
func (cfg Config) withDefaults() Config {
	if cfg.Scenario == "" {
		cfg.Scenario = Prefork
	}
	if cfg.CPUs == 0 {
		cfg.CPUs = 1
	}
	if cfg.Requests == 0 {
		switch cfg.Scenario {
		case Pipeline:
			cfg.Requests = 64 * cfg.CPUs
		case Checkpoint:
			cfg.Requests = 32
		case ForkStorm:
			cfg.Requests = 4
		case SMPServer:
			cfg.Requests = 8
		case BuildFarm:
			cfg.Requests = 24 * cfg.CPUs
		case NetLB, KVShard:
			cfg.Requests = 64
		case Migrate:
			cfg.Requests = 4
		default:
			cfg.Requests = 256
		}
	}
	if cfg.Nodes == 0 {
		switch cfg.Scenario {
		case NetLB:
			cfg.Nodes = 2
		case KVShard:
			cfg.Nodes = 3
		}
	}
	if cfg.Workers == 0 {
		if cfg.Scenario == ForkStorm {
			cfg.Workers = 64 * cfg.CPUs
		} else {
			cfg.Workers = 3
		}
	}
	if cfg.RequestWorkMiB == 0 && cfg.Scenario == BuildFarm {
		cfg.RequestWorkMiB = 4
	}
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 64 << 20
	}
	if cfg.RAMBytes == 0 {
		cfg.RAMBytes = 4 * cfg.HeapBytes
		if cfg.RAMBytes < 1<<30 {
			cfg.RAMBytes = 1 << 30
		}
	}
	return cfg
}

// mutateBytes is how much of the heap the Checkpoint server rewrites
// between snapshots, each page paying a COW break while the snapshot
// holds the old view, and how much a fork-family migrant re-dirties
// per pre-copy round: an eighth of the resolved heap, rounded up to
// whole pages.
func (cfg Config) mutateBytes() uint64 {
	return (cfg.HeapBytes/8 + mem.PageSize - 1) &^ (mem.PageSize - 1)
}

// SpecError is a typed validation failure: which field of which spec
// is wrong and why. load.Config, fleet.Spec and cluster.Spec all
// reject junk with it, so callers that build specs programmatically
// (sim/cluster, the CLI) can branch on Field instead of parsing
// messages.
type SpecError struct {
	// Spec names the offending spec type ("load.Config",
	// "fleet.Spec", "cluster.Spec").
	Spec string
	// Field is the offending field, dotted for nested specs
	// ("Pools[web].MinMachines").
	Field string
	// Reason says what about the value is unacceptable.
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("%s: invalid %s: %s", e.Spec, e.Field, e.Reason)
}

// validate rejects the counts withDefaults cannot resolve: zero
// selects a default, a negative count is junk, and so is a CPU count
// past what a machine can have, RAM smaller than one page, or a
// strategy outside the six. Templates.Run and Templates.Server call it
// before any machine boots.
func (cfg Config) validate() error {
	if !cfg.Via.Valid() {
		return &SpecError{Spec: "load.Config", Field: "Via",
			Reason: fmt.Sprintf("unknown strategy %d", int(cfg.Via))}
	}
	fields := []string{"Requests", "Workers", "Window", "Nodes", "RequestWorkMiB"}
	for i, n := range []int{cfg.Requests, cfg.Workers, cfg.Window, cfg.Nodes, cfg.RequestWorkMiB} {
		if n < 0 {
			return &SpecError{Spec: "load.Config", Field: fields[i],
				Reason: fmt.Sprintf("%d (want >= 0; 0 selects the default)", n)}
		}
	}
	if cfg.CPUs < 0 || cfg.CPUs > cost.MaxCPUs {
		return &SpecError{Spec: "load.Config", Field: "CPUs",
			Reason: fmt.Sprintf("%d (want 0..%d; 0 selects 1)", cfg.CPUs, cost.MaxCPUs)}
	}
	if cfg.RAMBytes != 0 && cfg.RAMBytes < mem.PageSize {
		return &SpecError{Spec: "load.Config", Field: "RAMBytes",
			Reason: fmt.Sprintf("%d (want 0 or at least one %d-byte page; 0 selects the default)", cfg.RAMBytes, mem.PageSize)}
	}
	return nil
}

// Metrics is the deterministic result of one run. All quantities are
// virtual-time: two runs with the same Config produce identical
// Metrics, bit for bit.
type Metrics struct {
	Scenario  string `json:"scenario"`
	Strategy  string `json:"strategy"`
	HeapBytes uint64 `json:"heap_bytes"`
	RAMBytes  uint64 `json:"ram_bytes"`
	NumCPUs   int    `json:"num_cpus"`

	// Requests is completed units of user-visible work; Creations
	// is processes created (a pipeline request creates several).
	Requests  uint64 `json:"requests"`
	Creations uint64 `json:"creations"`

	// FailedRequests counts requests lost to injected faults (chaos
	// mode only — a clean run fails on a lost request instead).
	// OOMKills counts workers the OOM killer reaped during the loop.
	FailedRequests uint64 `json:"failed_requests,omitempty"`
	OOMKills       uint64 `json:"oom_kills,omitempty"`

	// VirtualNanos is the virtual time the loop took; the *PerVSec
	// rates are per virtual second — the paper's throughput axis.
	VirtualNanos     uint64  `json:"virtual_ns"`
	RequestsPerVSec  float64 `json:"requests_per_vsec"`
	CreationsPerVSec float64 `json:"creations_per_vsec"`

	// PeakRSSBytes is the highest machine's high-water mark of
	// allocated physical memory during the loop (huge frames counted
	// at full size), sampled when the cell opens and at the loop's
	// peak-occupancy points.
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`

	// Counters are the loop's cost counters, summed over every
	// machine in the cell.
	Counters

	// CPUUtilization is, per CPU, the busy fraction of the virtual
	// time that CPU advanced during the loop (index = CPU id;
	// always in [0, 1]).
	CPUUtilization []float64 `json:"cpu_utilization"`

	// ServerCPUNanos is the virtual CPU time the resident server's
	// threads executed during the loop, summed across CPUs — the
	// service capacity left over after creation/snapshot taxes (set
	// by the SMPServer scenario; 0 elsewhere).
	ServerCPUNanos uint64 `json:"server_cpu_ns,omitempty"`

	// NetCounters are the wire counters of the network cells.
	NetCounters

	// Live-migration counters, set only by the Migrate scenario (and
	// omitted from the JSON elsewhere). MigrateRounds is pre-copy
	// rounds shipped across all migrations (round 0 included),
	// MigratePagesSent the 4 KiB pages that crossed the wire,
	// MigrateDowntimeNanos the summed stop-and-copy outage — the
	// experiment's y-axis: Θ(dirty heap) for fork-family migrants,
	// ~flat for spawned ones — and MigrateRefused the migrants the
	// checkpoint refused to serialize (vfork borrowers).
	MigrateRounds        uint64 `json:"migrate_rounds,omitempty"`
	MigratePagesSent     uint64 `json:"migrate_pages_sent,omitempty"`
	MigrateDowntimeNanos uint64 `json:"migrate_downtime_ns,omitempty"`
	MigrateRefused       uint64 `json:"migrate_refused,omitempty"`

	// NetFlows is the fabric's flow log — per directed (src, dst,
	// label) flow — in (src, dst, label) order. The metrics plane
	// (`forkbench metrics`) renders each as a labelled counter.
	NetFlows []NetFlow `json:"net_flows,omitempty"`
}

// NetFlow is one directed flow's cumulative counters. Addresses are
// cell-local: 0 the client, then the balancer and backends (NetLB) or
// the shards (KVShard).
type NetFlow struct {
	Src     int    `json:"src"`
	Dst     int    `json:"dst"`
	Flow    string `json:"flow"`
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
	Drops   uint64 `json:"drops,omitempty"`
}

// Counters are the cost counters of a measured loop: PageCopies is the
// COW-fault tax (plus eager-fork copies where selected), and
// TLBShootdowns the remote-CPU IPIs — the SMP fork tax, always 0 on
// one CPU. Every field is a sum; Add is the one place that says so,
// and the fleet rollup and the forkbench diff gate derive from this
// declaration.
type Counters struct {
	PageFaults      uint64 `json:"page_faults"`
	PageCopies      uint64 `json:"page_copies"`
	PageZeroes      uint64 `json:"page_zeroes"`
	PTECopies       uint64 `json:"pte_copies"`
	TLBShootdowns   uint64 `json:"tlb_shootdowns"`
	ContextSwitches uint64 `json:"context_switches"`
	Syscalls        uint64 `json:"syscalls"`
	Instructions    uint64 `json:"instructions"`
}

// Add folds o into c.
func (c *Counters) Add(o Counters) {
	c.PageFaults += o.PageFaults
	c.PageCopies += o.PageCopies
	c.PageZeroes += o.PageZeroes
	c.PTECopies += o.PTECopies
	c.TLBShootdowns += o.TLBShootdowns
	c.ContextSwitches += o.ContextSwitches
	c.Syscalls += o.Syscalls
	c.Instructions += o.Instructions
}

// NetCounters are the wire counters, set by the network cells (netlb,
// kvshard, migrate) and zero — and absent from the JSON — everywhere
// else, so single-machine reports are byte-identical to runs of a
// binary without networking. Packets/bytes are fabric totals across
// every node; NetDrops counts frames the fault schedule ate (send-side
// plus delivery-side); NetTimeouts is client attempts that outlived
// their deadline and NetRetries the ones re-sent (a timeout past the
// attempt budget fails the request into FailedRequests instead).
type NetCounters struct {
	NetPacketsSent uint64 `json:"net_packets_sent,omitempty"`
	NetPacketsRecv uint64 `json:"net_packets_recv,omitempty"`
	NetBytesSent   uint64 `json:"net_bytes_sent,omitempty"`
	NetBytesRecv   uint64 `json:"net_bytes_recv,omitempty"`
	NetDrops       uint64 `json:"net_drops,omitempty"`
	NetTimeouts    uint64 `json:"net_timeouts,omitempty"`
	NetRetries     uint64 `json:"net_retries,omitempty"`
}

// Render formats the metrics as an aligned block for the CLI.
func (m *Metrics) Render() string {
	var b strings.Builder
	row := func(k, v string) { fmt.Fprintf(&b, "  %-18s %s\n", k, v) }
	fmt.Fprintf(&b, "load %s via %s (heap %s, RAM %s, %d CPU(s))\n",
		m.Scenario, m.Strategy, HumanBytes(m.HeapBytes), HumanBytes(m.RAMBytes), m.NumCPUs)
	row("requests", fmt.Sprintf("%d (%.0f/virt-s)", m.Requests, m.RequestsPerVSec))
	if m.FailedRequests > 0 || m.OOMKills > 0 {
		row("failed", fmt.Sprintf("%d (injected faults; %d oom-killed)", m.FailedRequests, m.OOMKills))
	}
	row("creations", fmt.Sprintf("%d (%.0f/virt-s)", m.Creations, m.CreationsPerVSec))
	row("virtual time", fmt.Sprintf("%.3fms", float64(m.VirtualNanos)/1e6))
	row("peak RSS", HumanBytes(m.PeakRSSBytes))
	row("page faults", fmt.Sprint(m.PageFaults))
	row("page copies", fmt.Sprintf("%d (COW tax)", m.PageCopies))
	row("PTE copies", fmt.Sprint(m.PTECopies))
	row("TLB shootdowns", fmt.Sprintf("%d (SMP fork tax)", m.TLBShootdowns))
	row("ctx switches", fmt.Sprint(m.ContextSwitches))
	row("syscalls", fmt.Sprint(m.Syscalls))
	row("instructions", fmt.Sprint(m.Instructions))
	if m.MigrateRounds > 0 || m.MigrateRefused > 0 {
		row("migrations", fmt.Sprintf("%d (%d refused)", m.Requests, m.MigrateRefused))
		row("precopy rounds", fmt.Sprint(m.MigrateRounds))
		row("pages shipped", fmt.Sprintf("%d (%s)", m.MigratePagesSent,
			HumanBytes(m.MigratePagesSent*uint64(mem.PageSize))))
		row("downtime", fmt.Sprintf("%.3fms (stop-and-copy, summed)",
			float64(m.MigrateDowntimeNanos)/1e6))
	}
	if m.NetPacketsSent > 0 {
		row("net packets", fmt.Sprintf("%d sent / %d recv (%d dropped)",
			m.NetPacketsSent, m.NetPacketsRecv, m.NetDrops))
		row("net bytes", fmt.Sprintf("%s sent / %s recv",
			HumanBytes(m.NetBytesSent), HumanBytes(m.NetBytesRecv)))
		row("net timeouts", fmt.Sprintf("%d (%d retried)", m.NetTimeouts, m.NetRetries))
	}
	if len(m.CPUUtilization) > 0 {
		var u []string
		for _, f := range m.CPUUtilization {
			u = append(u, fmt.Sprintf("%.0f%%", 100*f))
		}
		row("cpu util", strings.Join(u, " "))
	}
	if m.ServerCPUNanos > 0 {
		row("server cpu", fmt.Sprintf("%.3fms", float64(m.ServerCPUNanos)/1e6))
	}
	return b.String()
}

// HumanBytes renders an exact power-of-two byte count with its
// largest unit (1GiB, 64MiB, 4KiB); other values render as raw bytes.
// Shared by the load and fleet CLI renderers.
func HumanBytes(n uint64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// DefaultWindow reports a scenario's steady-state in-flight request
// window at the given CPU count — the value Config.Window overrides
// (and the baseline sim/fleet's traffic surge multiplies). Zero for
// scenarios without a window knob.
func DefaultWindow(s Scenario, cpus int) int {
	if cpus < 1 {
		cpus = 1
	}
	switch s {
	case Prefork:
		return cpus
	case BuildFarm:
		return 2 * cpus
	case NetLB, KVShard:
		// The distributed client's in-flight window is a property of
		// the cell, not of any one machine's CPU count.
		return 4
	}
	return 0
}

// Run boots a fresh machine (or cell), warms it, and executes one
// scenario, reporting its metrics: (*Templates)(nil).Run, the cold
// path. Counters are zeroed after the warm-up, so boot and
// heap-dirtying cost is excluded from the measured loop.
func Run(cfg Config) (*Metrics, error) {
	return (*Templates)(nil).Run(cfg)
}
