// Package fleet multiplexes many deterministic simulated machines
// across host cores — the datacenter dimension of "A fork() in the
// road" (HotOS'19).
//
// The paper's §5 costs compound at scale: one machine pays fork's
// page-table tax per creation, a fleet pays it per creation per
// machine, and a deploy wave pays the warm-up tax machine by machine.
// A fleet.Spec describes N machines, each derived deterministically
// from (spec, machine id): shape (CPUs), strategy, workload, and
// scale. Run executes the machines concurrently on a host worker pool
// bounded by GOMAXPROCS and merges results by order-independent rules,
// so the aggregate report is byte-identical at any host parallelism — the
// determinism guarantee sim makes for one machine, promoted to the
// fleet:
//
//	res, err := fleet.Run(fleet.Spec{
//		Machines: 8,
//		Scenario: fleet.RollingRestart,
//		Via:      sim.ForkExec,
//	})
//	data, _ := res.JSON() // byte-stable: same Spec, same bytes
//
// Six fleet scenarios express behaviour one machine cannot:
//
//	Uniform        — N identical machines each driving a sim/load
//	                 scenario; the parallel substrate the forkbench
//	                 sweep runs on.
//	RollingRestart — the deploy wave: each machine serves warm, is
//	                 replaced by a fresh instance that repays the
//	                 warm-up tax (dirty heap + pre-created worker
//	                 pool, Θ(heap) per pool worker under fork), then
//	                 serves again. Spawn-based fleets re-warm flat.
//	Rebalance      — the deploy wave by live migration: each machine's
//	                 resident worker moves to the fresh instance over
//	                 the wire (load.Migrate), so the outage is only
//	                 the stop-and-copy downtime — Θ(dirty heap) under
//	                 fork, ~flat under spawn; a worker the checkpoint
//	                 refuses (a vfork borrower) falls back to the full
//	                 rolling restart.
//	Heterogeneous  — machine shapes cycle 1/2/4/8 CPUs with traffic
//	                 scaled to the core count; fork's TLB-shootdown
//	                 tax concentrates on the big machines.
//	Surge          — a baseline phase, then a traffic spike that
//	                 multiplies the in-flight window and request
//	                 volume on every machine at once.
//	Chaos          — the fault-injection wave: every machine serves
//	                 prefork traffic under a sim/fault schedule
//	                 derived from (Spec.FaultSeed, machine id) —
//	                 ENOMEM pressure waves that prey on fork's
//	                 Θ(heap) reservations, plus worker kill waves.
//	                 Lost requests land in Aggregate.FailedRequests,
//	                 and because schedules are pure functions of the
//	                 machine's virtual execution the report — losses
//	                 included — keeps the byte-stability guarantee.
//
// RunAll is the lower-level primitive: an order-preserving parallel
// map over arbitrary load.Configs, used by `forkbench load -sweep` so
// the full strategy x scenario x cpus matrix runs concurrently. The
// claim sweeps in internal/experiments run the same loop — ForEach
// over one load.Templates — on cells that may also be whole fleet or
// cluster specs. Host wall-clock, worker count, and peak
// RSS are reported on Result (HostElapsed, HostWorkers,
// HostPeakRSSBytes) but never marshalled: the JSON answers "what did
// the fleet do", the host fields answer "how fast did this computer
// simulate it".
//
// Two host-side mechanisms keep Run host-scalable without touching a
// virtual-time byte (README "Host-scale fleets"):
//
//   - Streaming aggregation: finished machines fold into the Aggregate
//     as they complete and are dropped, so a fleet of any size runs in
//     constant report memory. Every fold rule is a sum or a max and the
//     fleet rate folds through an exact (big.Int-scaled) accumulator,
//     so the fold is order-independent: any completion order rounds
//     identically to the serial fold. Spec.KeepPerMachine retains the
//     Result.Machines breakdown, each machine in its id's slot.
//   - Machine reuse: a finished machine's allocations recycle into its
//     template's next stamp (sim.Template.Release); a recycled clone is
//     byte-identical to a fresh one.
//
// Every rollup rule lives in one place. machineRollup turns one
// machine's phases, restart tax and migration outage into a
// one-machine Aggregate, and (*Aggregate).add holds every sum and max;
// the streaming fold is add(rollup), and the machine's own rate and
// its report row read the rollup. The cost counters are load.Counters,
// embedded, so a counter added there reaches the Aggregate and the
// fold with no edit here; a new fleet-level field is one field on
// Aggregate, set in machineRollup, plus its rule in add.
//
// The host time of a fleet is measured by the bench/ module's
// fleet-mix workload; BenchmarkFleet100k holds a 100,000-machine fleet
// under 1 GiB of peak RSS.
//
// The forkbench CLI fronts this package (`forkbench fleet`), and
// internal/experiments extends the §5 server-claim table to fleet
// scale with it (experiments.FleetClaim, `forkbench fleetclaim`).
//
// The sim/cluster package builds the autoscaling layer on top: each
// cluster node is one persistent load.Server, and cluster's reconcile
// loop boots and retires them between pool bounds in virtual time on
// this package's ForEach (experiments.ScaleOutClaim, `forkbench
// cluster`).
//
// Every warmed machine is a load.Server from load.Templates; nil means
// cold. A run holds one cache, and every phase stamps from it: the
// serve phases and the rebalance wave's migration source from the
// template of their load.Shape, the rolling wave's replacement
// instance from the template of its server shape, which adds the
// parked pool. The replacement's warm-up is the restart tax, and its
// Drain fails the machine on a process, frame or commit left off its
// books. Each template is
// warmed once via sim.System.Snapshot and host-COW-cloned per machine,
// so fleet host cost stops being Θ(heap)×N. Spec.ColdBoot holds a nil
// cache instead; the report is byte-identical either way, which CI's
// clone-equivalence gate enforces for the rolling and rebalance waves
// and the network cells (see README "Template machines & O(1) clone").
//
// Distributed loads (load.NetLB, load.KVShard) run one sim/net cell
// per fleet machine: the cell is a self-contained deterministic
// simulation, so fleet parallelism applies to distributed workloads
// unchanged, and the chaos scenario swaps its per-machine fault
// schedule for fault.NetChaos — wire-level drops instead of memory
// pressure (the CI determinism gate byte-compares the netlb result at
// GOMAXPROCS 1 vs 4, and the clone-equivalence gate the kvshard chaos
// result cold at 1 vs stamped at 4). load.Migrate is not a per-machine
// load: the Rebalance scenario runs one migrate cell per machine and
// rolls up its downtime.
package fleet
