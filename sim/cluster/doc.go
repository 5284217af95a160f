// Package cluster is a deterministic autoscaling control loop above
// sim/fleet: named node pools of simulated machines, scaled between
// declared bounds by a reconcile loop that watches per-machine load
// and boots or retires capacity — fork()'s costs at the layer where
// clouds actually feel them.
//
// "A fork() in the road" prices process creation per call: fork is
// Θ(parent heap), spawn is flat. This package asks what that does to
// *elasticity*. A new machine is not useful when it boots; it is
// useful when it is warm — heap dirtied, worker pool pre-created
// through the pool's strategy. Under fork every warm worker duplicates
// the freshly dirtied heap's page tables, so a fork pool's scale-out
// latency grows with the heap while a spawn pool's stays flat; during
// a traffic surge that latency is backlog, and backlog is missed SLOs
// (experiment E12, `forkbench cluster`).
//
// The reconcile loop advances a cluster-wide virtual clock in
// ReconcileEvery steps. Each step, in a fixed order: machine-kill
// faults (fault.PointMachineKill — fault.KillZone gives zone-scoped
// outages with cordon-and-backfill), request arrivals from the traffic
// plan, deterministic balancing (seeded power-of-two-choices, CPU-
// weighted, machine-id tie-broken), host-parallel serving (each
// machine a sim.System on its own clock, budgeted to the step), then
// per-pool autoscaling against a 70% target utilization. Machines boot
// *inside* virtual time: a scale-out decided at step s takes traffic
// only after its measured warm-up elapses, so scale-out latency is a
// first-class, strategy-dependent output. Every cross-machine decision
// happens at a step barrier in (pool, machine-id) order, so the Report
// — trace included — is byte-identical at any GOMAXPROCS.
//
// Scenarios: Surge (fork pool vs spawn pool racing the same spike),
// ZoneOutage (zone-scoped kills, backfill in surviving zones),
// HeteroPools (one stream bin-packed across a 1/2/4/8-CPU ladder),
// and NetSplit (fault.ZonePartition severs a zone's links without
// killing its machines; the balancer's reachability probe routes
// around the partition until it heals — see README "Inter-machine
// network & metrics").
//
// Draining by killing is not the only move the stack knows: the
// checkpoint/migration plane (sim.Process.Checkpoint, sim/load's
// Migrate cell, sim/fleet's Rebalance wave) relocates a running
// worker for its stop-and-copy downtime instead of a machine's full
// re-warm tax. The cluster-layer version (migrate a zone out rather
// than kill and backfill) is not built: the autoscaler still drains
// by kill and backfill.
//
// Scale-out machines are stamped from the run's load.Templates cache,
// the one source of warmed machines (nil means cold): the
// ready-to-serve server master is warmed once per shape and
// host-COW-stamped per node, so the *host* cost of a scale-out stops
// being Θ(heap) while the *virtual* warm-up latency the autoscaler
// measures is unchanged (see README "Template machines & O(1) clone").
package cluster
