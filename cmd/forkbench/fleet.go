package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/sim"
	"repro/sim/fleet"
	"repro/sim/load"
)

// runFleet is the `forkbench fleet` subcommand: configure a fleet.Spec
// from flags, run the fleet across host cores, and print the
// byte-stable report. Everything on stdout is a pure function of the
// flags — identical at GOMAXPROCS=1 and GOMAXPROCS=8 — so the CI
// determinism gate can diff it; the host-side wall clock and worker
// count go to stderr.
func runFleet(args []string) error {
	fs := flag.NewFlagSet("forkbench fleet", flag.ExitOnError)
	machines := fs.Int("machines", 4, "fleet size")
	scenario := fs.String("scenario", "rolling", scenarioNames(fleet.Scenarios()))
	loadName := fs.String("load", "prefork", "per-machine workload ("+scenarioNames(load.Scenarios(), load.Migrate)+")")
	via := fs.String("via", sim.ForkExec.Name(), sim.StrategyNames())
	cpus := fs.Int("cpus", 0, "CPUs per machine (0 = 2; hetero cycles 1/2/4/8)")
	n := fs.Int("n", 0, "requests per machine per serve phase (0 = 24)")
	workers := fs.Int("workers", 0, "rolling warm-pool size (0 = 2*cpus)")
	surge := fs.Int("surge", 0, "surge-phase window/volume multiplier (0 = 4)")
	seed := fs.Uint64("seed", 0, "chaos fault-wave seed (0 = 1)")
	heap := fs.String("heap", "64MiB", "per-machine server heap size")
	permachine := fs.Bool("permachine", false, "keep the per-machine breakdown in the report (off: stream machines into the aggregate in constant memory)")
	jsonPath := fs.String("json", "", "write the fleet report to FILE as byte-stable JSON")
	cold := fs.Bool("cold", false, "cold-boot every machine instead of stamping from templates (host cost only; the report is byte-identical either way)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to FILE")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("fleet: unexpected argument %q", fs.Arg(0))
	}
	// The Spec treats zero as "default"; on the CLI an explicit
	// -machines 0 is a mistake, not a request for the default.
	if *machines < 1 {
		return fmt.Errorf("fleet: -machines %d (want >= 1)", *machines)
	}
	scen, err := fleet.ParseScenario(*scenario)
	if err != nil {
		return err
	}
	loadScen, err := load.ParseScenario(*loadName)
	if err != nil {
		return err
	}
	st, err := sim.ParseStrategy(*via)
	if err != nil {
		return err
	}
	heapBytes, err := parseSize(*heap)
	if err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	res, err := fleet.Run(fleet.Spec{
		Machines:       *machines,
		Scenario:       scen,
		Load:           loadScen,
		Via:            st,
		CPUs:           *cpus,
		Requests:       *n,
		Workers:        *workers,
		SurgeFactor:    *surge,
		FaultSeed:      *seed,
		HeapBytes:      heapBytes,
		KeepPerMachine: *permachine,
		ColdBoot:       *cold,
	})
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	fmt.Fprintf(os.Stderr, "host: %d machines on %d worker(s) in %s (GOMAXPROCS %d, peak RSS %s)\n",
		res.Aggregate.Machines, res.HostWorkers,
		res.HostElapsed.Round(time.Microsecond), runtime.GOMAXPROCS(0),
		load.HumanBytes(res.HostPeakRSSBytes))
	if *jsonPath != "" {
		data, err := res.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote fleet report to %s\n", *jsonPath)
	}
	return nil
}
