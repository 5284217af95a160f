// Package load is the simulator's workload driver: deterministic,
// closed-loop, high-volume scenarios that exercise sustained process
// creation on a sim.System — the scale dimension of "A fork() in the
// road" (HotOS'19).
//
// The paper's §5 argument is not that one fork is slow, it is that
// fork is the wrong API *at scale*: its cost grows with the parent's
// address space, so a server that creates a process per request gets
// slower as it gets bigger. Figure 1 shows single creations; this
// package drains tens of thousands of them and reports throughput.
//
// Six scenarios, each parameterized by creation strategy (sim.Via),
// CPU count (Config.CPUs), scale, and server heap size:
//
//	Prefork    — a web server creating one worker process per request
//	             (the classic fork-per-connection design), keeping one
//	             request in flight per CPU; throughput collapses under
//	             fork as the server heap grows, and is flat under
//	             spawn or the cross-process builder.
//	Pipeline   — a shell-style farm building echo|cat|…|cat pipelines
//	             and draining them; exercises pipes plus multi-process
//	             creation per unit of work.
//	Checkpoint — a Redis-style snapshot loop: snapshot the server's
//	             heap, keep mutating it while the snapshot is held,
//	             pay the COW-fault tax on every mutated page. The one
//	             workload where fork's COW semantics genuinely help
//	             (§5's "fork remains useful for snapshots").
//	ForkStorm  — bursts of simultaneously live children, stressing the
//	             scheduler's run queues and burst teardown; the burst
//	             size scales with the CPU count.
//	SMPServer  — the Redis/SMP worst case: a real multithreaded server
//	             (one spinning worker thread per CPU, each rewriting
//	             its slice of a dirty heap) takes fork snapshots
//	             mid-traffic. Each snapshot COW-downgrades the page
//	             tables while threads run on other cores — one TLB-
//	             shootdown IPI per remote core, then another round per
//	             post-snapshot COW break — so fork's snapshot tax
//	             grows with the core count, while fork-less snapshots
//	             through the cross-process API stay IPI-free.
//	BuildFarm  — a parallel build keeping 2*CPUs compile jobs in
//	             flight, each with a private working set (default
//	             4 MiB); measures how the creation strategy scales job
//	             launch with cores.
//
// Every run is a pure function of its Config: the simulator has no
// host-time or randomness inputs, so two runs with the same Config
// produce byte-identical Metrics at every CPU count — asserted by
// this package's determinism regression test. Metrics are
// virtual-time quantities (requests per *virtual* second, from the
// kernel's cost.Meter); host wall-clock speed is a property of the
// simulator, not the result.
//
//	m, err := load.Run(load.Config{
//		Scenario:  load.Prefork,
//		Via:       sim.Spawn,
//		Requests:  10000,
//		HeapBytes: 256 << 20,
//	})
//
// Config.Faults turns a run into a chaos run: a deterministic fault
// schedule from sim/fault is armed after warm-up, per-request
// failures (refused creations, OOM-killed or crash-waved workers) are
// counted in Metrics.FailedRequests instead of aborting, and the run
// stays exactly as reproducible as a clean one — the schedule is a
// pure function of the machine's virtual execution. Prefork is the
// failure-tolerant scenario; experiments.ChaosClaim (E11, `forkbench
// chaos`) and the fleet chaos scenario build on it.
//
// The distributed scenarios (NetLB, KVShard) put several Servers on
// sim/net's deterministic message fabric inside one cell: an L7
// balancer fronting a backend pool whose restarted member re-warms
// under the client retry timeout (E15, `forkbench netclaim`), and a
// shard-per-machine KV service with client retries. Their Metrics
// gain packet/byte/drop/timeout/retry counters and a per-flow log —
// all omitempty, so the network plane is free when disabled — which
// `forkbench metrics` renders in Prometheus text format (see README
// "Inter-machine network & metrics").
//
// Migrate is the live-migration cell: two machines on the fabric, a
// worker created per strategy on the source, iterative pre-copy of
// its dirtied pages over the wire (the COW dirty tracking, rearmed
// each round), then a stop-and-copy residue whose cost is the
// downtime — Θ(dirty heap) for the fork family, ~flat for spawn, a
// typed refusal for a mid-vfork borrower (E16, `forkbench migrate`).
// The fleet's Rebalance scenario runs this cell per machine, falling
// back to the rolling-restart tax when the checkpoint refuses.
//
// Every machine is a Server. A warmed one comes from Templates; nil
// means cold. A scenario machine — a single-machine run or a migration
// source — is a Server whose Shape parks no pool; the Servers
// Templates.Server hands out (network-cell backends, sim/fleet's
// rolling-wave replacements, sim/cluster's nodes) add a parked worker
// pool (Shape.Via and Shape.Pool). One recipe warms both, the cache
// freezes one Template per Shape, and one stamp path clones it and
// re-adopts the pool. A migration destination is the same recipe with
// no heap and no pool, stamped like the rest: its books are its boot
// state.
// Templates.Run is the one scenario dispatch, and Run is
// (*Templates)(nil).Run, so a stamped run and a cold run produce
// byte-identical Metrics. Templates.Run and Templates.Server reject a
// negative count, and Server any scenario but Prefork, with a
// *SpecError before any machine boots. Server.Drain checks the
// machine's own books: an error names each process, frame or commit
// count not back at its post-warm-up baseline.
//
// Every run is one cell: the Servers it drives, the fabric between
// them (none for a single machine; cfg.Faults is the wire's schedule
// in the network cells), and one measured window over their meters.
// Each run's loop — a single-machine pass (Server.Run), the network
// cells' event loop or the migrations — opens the cell after warm-up and
// closes it into its Metrics, and Templates.Run drains it: every
// machine a run boots, migration destinations included, retires
// through Server.Drain on every path, error paths included, and one
// off its books fails the run.
//
// Prefork, BuildFarm and a Server's batches are one closed loop: a
// window of requests in flight, each a worker created fresh through
// Config.Via, its body a trivial exit or a RequestWorkMiB working set.
// What differs between them comes from the Config — the window, the
// request body, whether a fault schedule is armed — never from which
// caller runs the loop.
//
// Metrics declares each counter once. The cost counters are the
// embedded Counters struct — a tagged copy of the kernel's
// kernel.Counters snapshot, converted directly so the two cannot drift
// — and the wire counters the embedded NetCounters. The cell's window
// opens after warm-up (meters zeroed, context-switch and OOM-kill
// baselines noted, each machine's peak restarted from one sample) and
// closes into the one Metrics assembly: the header, Counters and OOM
// kills summed over the cell's machines, the highest machine peak, the
// fabric's totals and flow log, and the rates. A loop adds only its own
// tallies. A new counter is one field in Counters (plus the
// kernel snapshot it is read from) with its rule in Counters.Add, or
// one field in NetCounters filled where the cell reads the fabric.
// sim/fleet's Aggregate embeds Counters and `forkbench diff` reads its
// field list off Metrics, so neither needs a further edit.
//
// The forkbench CLI fronts this package (`forkbench load`), and
// internal/experiments uses it to regenerate the §5 server-claim
// table. The sim/fleet package runs many of these machines at once —
// Config.Window is its traffic-surge knob — multiplexed across host
// cores with deterministically merged metrics (`forkbench fleet`,
// and the parallel `forkbench load -sweep` path).
package load
