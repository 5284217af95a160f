// Package sim is the public face of the reproduction of "A fork() in
// the road" (HotOS'19): an os/exec-style process API over the
// deterministic OS simulator in internal/kernel.
//
// The paper's §6 argument is an API argument — replace fork with a
// high-level spawn API plus a low-level cross-process API — and this
// package makes that argument the repository's actual surface. A
// System is one booted simulated machine; a Cmd describes a process to
// run on it, in the style of os/exec.Cmd; and every Cmd can be created
// through any of the process-creation strategies the paper compares,
// selected per command with Via:
//
//	sys, _ := sim.NewSystem(sim.WithConsole(os.Stdout))
//	out, _ := sys.Command("/bin/echo", "hello").Output()
//
//	cmd := sys.Command("/bin/cat")
//	cmd.Stdin = strings.NewReader("fed from the host\n")
//	cmd.Via(sim.ForkExec) // or VforkExec, Spawn, Builder, EmulatedFork
//	err := cmd.Run()
//
// Exit status is decoded: Wait and Run return *ExitError carrying a
// ProcessState with ExitCode and Signaled/Signal, never a raw status
// word. Pipes (System.Pipe), simulated files (System.Open/Create), and
// ExtraFiles wire descriptors between commands exactly as os/exec
// wires *os.File.
//
// A System is a multicore machine: sim.WithCPUs(n) boots up to 64
// simulated CPUs (default 1). Runnable threads then genuinely overlap
// in virtual time — and fork gets more expensive, because every COW
// break, unmap, and protection change pays a TLB-shootdown IPI per
// other CPU running the address space (§5's multicore argument).
// Stats reports per-CPU utilization and the shootdown count, and
// ProcessState reports per-CPU execution time.
//
// Determinism guarantee: the scheduler executes CPUs in virtual-time
// order (lowest clock first, lowest id on ties) with per-CPU run
// queues and deterministic work stealing, so with identical inputs a
// simulation is reproducible bit-for-bit at every CPU count. Nothing
// in the machine reads host time, host scheduling, or map iteration
// order; sim/load's regression suite asserts byte-identical metrics
// across repeated runs at 1, 2, 4, and 8 CPUs.
//
// Failure is a schedulable input: sim.WithFaults installs a
// deterministic fault-injection schedule from the sim/fault
// subpackage — a pure function of (machine id, virtual time, op
// counter) consulted at every fallible kernel boundary (frame
// allocation, commit reservation, page-table clone, COW break,
// descriptor-table copy, exec image load, thread creation) — and
// sim.WithTrace records a structured event trace (syscall enter/exit,
// scheduling decisions, shootdown IPIs, injected faults, process
// lifecycle) rendered by `forkbench trace` and frozen as golden files
// by the sim tests. The same schedule and seed replay bit-for-bit, so
// any failure found once is a regression test forever; sim/fault's
// exhaustive sweep injects a fault at every operation a clean run
// enumerates and holds the kernel to well-typed errors and zero leaks.
//
// The sim/load subpackage drives high-scale workloads over a System —
// a prefork server, pipeline farm, snapshot checkpointer, fork storm,
// a multithreaded SMP server snapshotting mid-traffic, and a parallel
// build farm, each deterministic and parameterized by strategy —
// turning the paper's §5 "fork poisons servers" claim into measured
// throughput (see `forkbench load`). The sim/fleet subpackage scales
// that to a fleet: N independent machines multiplexed across host
// cores with results merged by order-independent rules, so the aggregate
// report inherits the bit-for-bit determinism guarantee at any host
// parallelism (see `forkbench fleet`). The sim/cluster subpackage
// adds the elasticity layer above that: named node pools scaled by a
// deterministic virtual-time reconcile loop, where a new machine's
// warm-up — Θ(heap) per pool worker under fork — becomes measured
// scale-out latency (see `forkbench cluster`).
//
// Warmed machines can be frozen and stamped: System.Snapshot freezes
// the current state into an immutable Template whose page-table
// nodes, frame contents, and process trees are host-COW-shared into
// every Template.Clone, so cloning a warmed machine costs O(live
// structures) host time instead of Θ(heap) while charging zero
// simulated cost — a clone's metrics and traces are byte-identical to
// a cold-booted machine's. sim/load, sim/fleet, and sim/cluster all
// stamp their machines from templates; the bench/ module's
// template_clone probe and sim/load's BenchmarkStamp and
// BenchmarkColdBootWarm measure the host-side win (see README
// "Template machines & O(1) clone").
//
// Processes are movable: Process.Checkpoint serializes one process
// into a self-contained Image (a priced page-table walk; the process
// keeps running) and System.Restore rebuilds it on another machine,
// byte-identical to an unmigrated run. Fork-entangled state — a
// borrowed vfork space, pipe peers, unreaped children — refuses with
// a typed *kernel.CheckpointError: how a process was created decides
// whether it can move. sim/load's Migrate scenario drives iterative
// pre-copy live migration over the wire and sim/fleet's Rebalance
// wave migrates workers instead of restarting machines; `forkbench
// migrate` (E16) measures downtime vs heap per strategy (see README
// "Checkpoint & live migration").
//
// Machines are not islands: sim/net is the deterministic
// inter-machine message fabric (addressable NICs, latency/bandwidth
// cost model, delivery merged in (virtual-time, destination, seq)
// order), sim/load's netlb and kvshard scenarios are the distributed
// workloads riding it, and sim/metrics renders any run's counters in
// Prometheus text format (`forkbench metrics` — see README
// "Inter-machine network & metrics").
//
// The internal packages remain the substrate: internal/kernel is the
// simulated OS, internal/core holds the paper's spawn/cross-process
// primitives, and internal/experiments regenerates the figures.
// Advanced callers can drop down via System.Kernel, System.Host and
// Process.Raw.
package sim
