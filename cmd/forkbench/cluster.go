package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/sim/cluster"
)

// runCluster is the `forkbench cluster` subcommand: run one cluster
// scenario (sim/cluster's autoscaling reconcile loop) and print the
// byte-stable report — pool table plus reconcile trace. Everything on
// stdout is a pure function of the flags, identical at any GOMAXPROCS,
// so the CI determinism gate can diff it; host wall clock goes
// to stderr.
func runCluster(args []string) error {
	fs := flag.NewFlagSet("forkbench cluster", flag.ExitOnError)
	scenario := fs.String("scenario", "surge", scenarioNames(cluster.Scenarios()))
	heap := fs.String("heap", "64MiB", "per-machine server heap size")
	jsonPath := fs.String("json", "", "write the cluster report to FILE as byte-stable JSON")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to FILE")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("cluster: unexpected argument %q", fs.Arg(0))
	}
	s, err := cluster.ParseScenario(*scenario)
	if err != nil {
		return err
	}
	heapBytes, err := parseSize(*heap)
	if err != nil {
		return err
	}
	spec, err := cluster.SpecFor(s, heapBytes)
	if err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	rep, err := cluster.Run(spec)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	fmt.Println(rep.Render())
	fmt.Fprintf(os.Stderr, "host: %d worker(s) in %s (GOMAXPROCS %d)\n",
		rep.HostWorkers, rep.HostElapsed.Round(time.Microsecond), runtime.GOMAXPROCS(0))
	if *jsonPath != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote cluster report to %s\n", *jsonPath)
	}
	return nil
}
