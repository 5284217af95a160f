// Command forkbench regenerates the evaluation of "A fork() in the
// road" (HotOS'19) on the simulator: Figure 1, the semantics matrix
// (Table 1), and the E3–E12, E15 and E16 claim experiments. The
// experiment index is in internal/experiments; README "Regenerating
// the paper's evaluation" maps each paper claim to its command.
//
// Usage:
//
//	forkbench [flags] <experiment>
//	forkbench load [load flags]
//	forkbench fleet [fleet flags]
//	forkbench cluster [cluster flags]
//	forkbench metrics [metrics flags]
//	forkbench trace [trace flags] [prog arg...]
//	forkbench diff [-summary] <old.json> <new.json>
//
//	experiments: fig1 table1 cowtax hugepages overcommit compose scale
//	             ablations server cpusweep fleetclaim chaos scaleout
//	             netclaim migrate strategies all
//
//	-max SIZE     largest parent for sweeps (default 1GiB; each
//	              experiment clamps it to the heap it is sized for)
//
// "all" runs every experiment in the order listed. Its output is a
// pure function of the flags, so the CI experiments golden gate
// byte-compares it with testdata/experiments_all.txt.
//
// The sweeps — fig1, hugepages, scale and ablations over creation
// cells, and the load-backed claims server, cpusweep, fleetclaim,
// chaos, scaleout, netclaim and migrate (E8–E12, E15, E16) — take no
// flag but -max: it is their largest parent, their server heap, or the
// top of their heap ladder. Each simulates its cells in parallel on
// the host, and its table is the same at any GOMAXPROCS.
//
// "strategies" demonstrates the public sim API: one workload launched
// through every process-creation strategy the paper compares
// (Cmd.Via), verifying identical output and reporting each strategy's
// creation latency from a dirty parent. "cpusweep" is the SMP
// experiment: fork's snapshot tax versus core count (E9).
// "fleetclaim" is E10: the rolling-restart wave over growing fleet
// sizes — each replacement machine repays its warm-up tax, Θ(heap)
// page-table duplication per pool worker under fork. "chaos" is E11:
// the prefork server under identical deterministic memory-pressure
// fault waves (sim/fault), fork vs spawn — fork's Θ(heap) commit
// reservations are what the waves refuse, so the fork server drops
// traffic the spawn server serves (§4.6's overcommit argument made
// measurable). "scaleout" is E12: identical fork and spawn node pools
// racing the same traffic surge through sim/cluster's autoscaler —
// scale-out latency is Θ(heap) under fork, flat under spawn, and the
// gap is missed surge SLOs. "netclaim" is E15, the re-warm tax on the
// wire: the netlb cell (sim/load's L7 balancer) restarts one backend
// mid-run; the replacement's worker-pool warm-up is Θ(heap) under fork
// and flat under spawn, and the client retry timeout sits between the
// two, so fork turns the restart into a retry storm the spawn pool
// absorbs.
// "migrate" is E16, live migration: checkpoint a running worker,
// pre-copy its pages over sim/net while it keeps dirtying them, then
// stop-and-copy the residue — downtime grows with the dirty heap for
// the fork family, stays flat for spawn, and a mid-vfork borrower is
// refused cleanly because it has no coherent address space to ship.
//
// The trace subcommand runs one command with the structured event
// trace enabled and renders it (sim.WithTrace): syscall enter/exit
// with errno, scheduler dispatches, TLB-shootdown rounds, process
// lifecycle, and — with -seed — injected faults:
//
//	forkbench trace [-via STRATEGY] [-heap SIZE] [-cpus N]
//	                [-seed N] [-o FILE] [prog arg...]
//
// Its output is a pure function of its flags; the golden-trace tests
// in sim freeze one trace per creation strategy the same way.
//
// The load subcommand drives the sim/load workload scenarios:
//
//	forkbench load [-scenario prefork|pipeline|checkpoint|forkstorm|
//	                          smpserver|buildfarm|netlb|kvshard|migrate|all]
//	               [-via spawn|fork|vfork|builder|emufork|eager]
//	               [-n REQUESTS] [-workers N] [-nodes N] [-heap SIZE]
//	               [-ram SIZE] [-cpus N] [-huge] [-json FILE]
//
// Each run is deterministic; -json writes every run's metrics as a
// JSON array, the format of the repo's BENCH_SIM.json baseline
// (regenerate with `forkbench load -sweep -json BENCH_SIM.json`).
// With -sweep, -cpus pins the whole baseline matrix to one CPU count
// (the CI job runs it at 1 and 4); by default the matrix includes its
// own 1/2/4/8-CPU sweep of the SMP scenarios. The sweep fans its
// configurations out across host cores through sim/fleet — results
// and JSON are byte-identical to a serial run (the CI determinism
// gate holds the sweep to that at GOMAXPROCS 1 vs 4); wall-clock and
// worker count are reported on stderr.
//
// The fleet subcommand runs many machines at once (sim/fleet):
//
//	forkbench fleet [-machines N]
//	                [-scenario uniform|rolling|rebalance|hetero|surge|chaos]
//	                [-load SCENARIO] [-via STRATEGY] [-cpus N] [-n REQUESTS]
//	                [-workers N] [-surge K] [-seed N] [-heap SIZE]
//	                [-permachine] [-cold] [-json FILE]
//	                [-cpuprofile FILE] [-memprofile FILE]
//
// Its stdout is byte-identical at every GOMAXPROCS setting — host
// wall-clock, worker count, and peak RSS go to stderr. Machines
// stream into a constant-memory aggregate as they finish; -permachine
// keeps the per-machine breakdown (and its O(machines) report memory).
// The chaos scenario derives each machine's fault schedule from
// (-seed, machine id); the CI determinism gate byte-compares its JSON
// at GOMAXPROCS 1 vs 4.
//
// The cluster subcommand runs the autoscaling orchestrator
// (sim/cluster): named node pools scaled by a virtual-time reconcile
// loop against a traffic plan:
//
//	forkbench cluster [-scenario surge|zoneoutage|heteropools|netsplit]
//	                  [-heap SIZE] [-json FILE]
//
// Its stdout — pool table plus reconcile trace — is byte-identical at
// every GOMAXPROCS; the CI determinism gate byte-compares the
// zoneoutage JSON at GOMAXPROCS 1 vs 4. The netsplit scenario severs a
// zone's links (fault.ZonePartition) without killing its machines: the
// balancer's reachability probe routes around the partition and heals
// when it lifts.
//
// The metrics subcommand is the retina-style metrics plane: one
// deterministic run rendered as Prometheus text-format counters —
// per-machine request and packet/flow counters for a fleet of
// distributed cells (default), per-pool/zone counters for a cluster
// scenario (-cluster), and the structured trace's event-kind counters
// from one traced command (-trace):
//
//	forkbench metrics [-scenario netlb|kvshard|...] [-via STRATEGY]
//	                  [-machines N] [-n REQUESTS] [-heap SIZE] [-seed N]
//	                  [-cluster SCENARIO] [-trace] [-o FILE]
//
// Its output is a pure function of the flags (sim/metrics sorts
// families and samples), so the CI metrics golden gate byte-compares
// checked-in invocations the way the golden traces are frozen.
//
// The diff subcommand is the bench-drift gate: it compares two sweep
// JSON files metric by metric and fails on any difference, so silent
// cost-model changes fail CI instead of rotting the BENCH_SIM.json
// baseline. -summary prints one line per differing run (the changed
// metric names only) for readable CI logs.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/sim"
	"repro/sim/fleet"
	"repro/sim/load"
)

// scenarioNames joins a package's scenario names, in Scenarios order
// and leaving out skip, into a flag's help text.
func scenarioNames[S ~string](all []S, skip ...S) string {
	var names []string
	for _, s := range all {
		if !slices.Contains(skip, s) {
			names = append(names, string(s))
		}
	}
	return strings.Join(names, "|")
}

func parseSize(in string) (uint64, error) {
	s := strings.TrimSpace(in)
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "GiB"), strings.HasSuffix(s, "G"):
		mult = experiments.GiB
		s = strings.TrimSuffix(strings.TrimSuffix(s, "GiB"), "G")
	case strings.HasSuffix(s, "MiB"), strings.HasSuffix(s, "M"):
		mult = experiments.MiB
		s = strings.TrimSuffix(strings.TrimSuffix(s, "MiB"), "M")
	case strings.HasSuffix(s, "KiB"), strings.HasSuffix(s, "K"):
		mult = experiments.KiB
		s = strings.TrimSuffix(strings.TrimSuffix(s, "KiB"), "K")
	}
	n, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if n > math.MaxUint64/mult {
		return 0, fmt.Errorf("size %q overflows 64 bits", in)
	}
	return n * mult, nil
}

// subcommands are the modes that take their own flags; any other
// first argument names an experiment.
var subcommands = map[string]func(args []string) error{
	"load":    runLoad,
	"fleet":   runFleet,
	"cluster": runCluster,
	"metrics": runMetrics,
	"trace":   runTrace,
	"diff":    runDiff,
}

func main() {
	maxFlag := flag.String("max", "1GiB", "largest parent size for sweeps")
	flag.Usage = func() {
		names := make([]string, len(experimentTable))
		for i, e := range experimentTable {
			names[i] = e.name
		}
		fmt.Fprintf(os.Stderr, "usage: forkbench [flags] %s|all\n", strings.Join(names, "|"))
		fmt.Fprintf(os.Stderr, "       forkbench load [load flags]        (see forkbench load -h)\n")
		fmt.Fprintf(os.Stderr, "       forkbench fleet [fleet flags]      (see forkbench fleet -h)\n")
		fmt.Fprintf(os.Stderr, "       forkbench cluster [cluster flags]  (see forkbench cluster -h)\n")
		fmt.Fprintf(os.Stderr, "       forkbench metrics [metrics flags]  (see forkbench metrics -h)\n")
		fmt.Fprintf(os.Stderr, "       forkbench trace [trace flags]      (see forkbench trace -h)\n")
		fmt.Fprintf(os.Stderr, "       forkbench diff [-summary] <old.json> <new.json>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if run, ok := subcommands[flag.Arg(0)]; ok {
		if err := run(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	maxBytes, err := parseSize(*maxFlag)
	if err != nil {
		fatal(err)
	}
	err = runExperiments(flag.Arg(0), maxBytes, os.Stdout)
	if errors.Is(err, errUnknownExperiment) {
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

// An experiment is one entry of experimentTable. A non-zero cap
// clamps -max to the largest heap the experiment is sized for; run
// takes the clamped -max and returns the experiment's stdout.
type experiment struct {
	name string
	cap  uint64
	run  func(maxBytes uint64) (string, error)
}

// experimentTable is every experiment, in the order `forkbench all`
// runs them.
var experimentTable = []experiment{
	{"fig1", experiments.GiB, sweep(experiments.Figure1)},
	{"table1", 0, func(uint64) (string, error) { return render(experiments.Table1()) }},
	{"cowtax", 0, func(uint64) (string, error) { return render(experiments.CowTax()) }},
	{"hugepages", 512 * experiments.MiB, sweep(experiments.HugePages)},
	{"overcommit", 0, func(uint64) (string, error) { return render(experiments.Overcommit()) }},
	{"compose", 0, func(uint64) (string, error) { return render(experiments.Compose()) }},
	{"scale", 256 * experiments.MiB, sweep(experiments.Scale)},
	{"ablations", 128 * experiments.MiB, sweep(experiments.Ablations)},
	{"server", 256 * experiments.MiB, sweep(experiments.ServerClaim)},
	{"cpusweep", 64 * experiments.MiB, sweep(experiments.CPUSweep)},
	{"fleetclaim", 64 * experiments.MiB, sweep(experiments.FleetClaim)},
	{"chaos", 64 * experiments.MiB, sweep(experiments.ChaosClaim)},
	{"scaleout", 64 * experiments.MiB, sweep(experiments.ScaleOutClaim)},
	{"netclaim", 64 * experiments.MiB, sweep(experiments.NetClaim)},
	{"migrate", 64 * experiments.MiB, sweep(experiments.MigrateClaim)},
	{"strategies", 64 * experiments.MiB, strategies},
}

// errUnknownExperiment is returned for a name that is neither in
// experimentTable nor "all".
var errUnknownExperiment = errors.New("unknown experiment")

// runExperiments runs the named experiment, or every one in table
// order for "all", at -max maxBytes, writing each one's output to w as
// it finishes.
func runExperiments(name string, maxBytes uint64, w io.Writer) error {
	if maxBytes == 0 {
		return errors.New("-max must be larger than 0")
	}
	ran := false
	for _, e := range experimentTable {
		if name != "all" && name != e.name {
			continue
		}
		ran = true
		m := maxBytes
		if e.cap != 0 {
			m = min(m, e.cap)
		}
		out, err := e.run(m)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if _, err := io.WriteString(w, out); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("%w %q", errUnknownExperiment, name)
	}
	return nil
}

// sweep adapts a sweep's constructor, which takes only the clamped
// -max, to an experiment's run.
func sweep(build func(uint64) (*experiments.Sweep, error)) func(uint64) (string, error) {
	return func(maxBytes uint64) (string, error) { return render(build(maxBytes)) }
}

// render is an experiment's stdout: its rendered table and a blank
// line.
func render[R interface{ Render() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render() + "\n", nil
}

// strategies runs one workload through all five creation APIs via the
// public sim package and reports creation latency from a dirty parent
// — Figure 1's point made interactively.
func strategies(heap uint64) (string, error) {
	sys, err := sim.NewSystem(sim.WithRAM(4 << 30))
	if err != nil {
		return "", err
	}
	if err := sys.DirtyHost(heap, false); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "one workload, five creation APIs (parent dirties %s):\n\n", load.HumanBytes(heap))
	fmt.Fprintf(&b, "%-22s %-14s %s\n", "strategy", "creation", "output")
	var reference string
	for _, st := range sim.Strategies() {
		var buf bytes.Buffer
		cmd := sys.Command("echo", "hello", "road").Via(st)
		cmd.Stdout = &buf
		p, err := cmd.Create()
		if err != nil {
			return "", fmt.Errorf("%v: %w", st, err)
		}
		if err := p.Start(); err != nil {
			return "", fmt.Errorf("%v: %w", st, err)
		}
		if err := cmd.Wait(); err != nil {
			return "", fmt.Errorf("%v: %w", st, err)
		}
		out := strings.TrimSuffix(buf.String(), "\n")
		fmt.Fprintf(&b, "%-22v %-14v %q\n", st, p.CreationCost(), out)
		if reference == "" {
			reference = out
		} else if out != reference {
			return "", fmt.Errorf("%v produced %q, others %q", st, out, reference)
		}
	}
	b.WriteString("\nidentical output under every strategy; only the creation cost differs.\n\n")
	return b.String(), nil
}

// runLoad is the `forkbench load` subcommand: it parses the load
// flags, runs the selected scenario(s) through sim/load, prints each
// run's metrics, and optionally records them all as a JSON array.
func runLoad(args []string) error {
	fs := flag.NewFlagSet("forkbench load", flag.ExitOnError)
	scenario := fs.String("scenario", "prefork", scenarioNames(load.Scenarios())+"|all")
	via := fs.String("via", sim.Spawn.Name(), sim.StrategyNames())
	n := fs.Int("n", 0, "requests per scenario (0 = scenario default)")
	workers := fs.Int("workers", 0, "pipeline depth / storm burst size (0 = default)")
	nodes := fs.Int("nodes", 0, "distributed backend/shard count for netlb|kvshard (0 = default)")
	heap := fs.String("heap", "64MiB", "server heap size")
	ram := fs.String("ram", "0", "machine RAM (0 = 4x heap)")
	cpus := fs.Int("cpus", 0, "simulated CPU count (0 = 1; with -sweep, pins the matrix to this count)")
	huge := fs.Bool("huge", false, "back the server heap with 2MiB pages")
	jsonPath := fs.String("json", "", "write all runs' metrics to FILE as a JSON array")
	sweep := fs.Bool("sweep", false, "run the standard baseline matrix (ignores the other load flags except -cpus)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("load: unexpected argument %q", fs.Arg(0))
	}

	var configs []load.Config
	if *sweep {
		configs = sweepConfigs(*cpus)
	} else {
		st, err := sim.ParseStrategy(*via)
		if err != nil {
			return err
		}
		heapBytes, err := parseSize(*heap)
		if err != nil {
			return err
		}
		ramBytes, err := parseSize(*ram)
		if err != nil {
			return err
		}
		var scenarios []load.Scenario
		if *scenario == "all" {
			scenarios = load.Scenarios()
		} else {
			s, err := load.ParseScenario(*scenario)
			if err != nil {
				return err
			}
			scenarios = []load.Scenario{s}
		}
		for _, s := range scenarios {
			configs = append(configs, load.Config{
				Scenario:  s,
				Via:       st,
				CPUs:      *cpus,
				Requests:  *n,
				Workers:   *workers,
				Nodes:     *nodes,
				HeapBytes: heapBytes,
				RAMBytes:  ramBytes,
				HugePages: *huge,
			})
		}
	}

	// Every config is an independent machine: fan them out across
	// host cores. fleet.RunAll position-merges, so stdout and the
	// JSON are byte-identical to a serial run — the CI determinism
	// gate diffs the sweep JSON at GOMAXPROCS 1 vs 4 to hold it to
	// that. Host wall-clock goes to stderr.
	start := time.Now()
	hostWorkers := fleet.PoolSize(len(configs))
	all, err := fleet.RunAll(configs)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "load: %d run(s) on %d host worker(s) in %s (GOMAXPROCS %d)\n",
		len(all), hostWorkers, time.Since(start).Round(time.Microsecond), runtime.GOMAXPROCS(0))
	for _, m := range all {
		fmt.Println(m.Render())
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d run(s) to %s\n", len(all), *jsonPath)
	}
	return nil
}

// sweepConfigs is the standard baseline matrix behind
// `forkbench load -sweep -json BENCH_SIM.json`: the prefork §5 cells
// (fork vs spawn vs builder as the server heap grows), one
// representative configuration of each other scenario, and the SMP
// matrix — smpserver and buildfarm swept over 1/2/4/8 CPUs, where
// fork's per-snapshot shootdown tax grows with the core count and the
// fork-less paths pay none. Deterministic, so the emitted JSON is
// reproducible bit for bit. pinCPUs > 0 pins every config to one CPU
// count (the CI matrix runs the sweep at 1 and at 4).
func sweepConfigs(pinCPUs int) []load.Config {
	var out []load.Config
	for _, heap := range []uint64{64 * experiments.MiB, 256 * experiments.MiB} {
		for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn, sim.Builder} {
			out = append(out, load.Config{
				Scenario: load.Prefork, Via: via, Requests: 64, HeapBytes: heap,
			})
		}
	}
	for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
		out = append(out, load.Config{
			Scenario: load.Pipeline, Via: via, Requests: 32, Workers: 3,
			HeapBytes: 64 * experiments.MiB,
		})
	}
	for _, via := range []sim.Strategy{sim.ForkExec, sim.EagerForkExec} {
		out = append(out, load.Config{
			Scenario: load.Checkpoint, Via: via, Requests: 16,
			HeapBytes: 64 * experiments.MiB,
		})
	}
	for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
		out = append(out, load.Config{
			Scenario: load.ForkStorm, Via: via, Requests: 4, Workers: 256,
			HeapBytes: 64 * experiments.MiB,
		})
	}
	smpCounts := []int{1, 2, 4, 8}
	if pinCPUs > 0 {
		smpCounts = []int{pinCPUs}
	}
	for _, cpus := range smpCounts {
		for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
			out = append(out, load.Config{
				Scenario: load.SMPServer, Via: via, CPUs: cpus,
				Requests: 8, HeapBytes: 64 * experiments.MiB,
			})
		}
		for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
			out = append(out, load.Config{
				Scenario: load.BuildFarm, Via: via, CPUs: cpus,
				Requests: 16 * cpus, HeapBytes: 64 * experiments.MiB,
			})
		}
	}
	if pinCPUs > 0 {
		for i := range out {
			out[i].CPUs = pinCPUs
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "forkbench:", err)
	os.Exit(1)
}
