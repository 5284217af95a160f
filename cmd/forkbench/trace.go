package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/sim"
	"repro/sim/fault"
)

// runTrace is the `forkbench trace` subcommand: boot a machine with
// the structured event trace enabled, run one command through the
// selected creation strategy from a dirty parent, and render the trace
// — syscall enter/exit, scheduler dispatches, shootdown IPIs, process
// lifecycle, and (with -seed) injected faults. The output is a pure
// function of the flags: the same invocation always prints the same
// bytes, which is what lets the golden-trace regression tests byte-
// compare checked-in traces.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("forkbench trace", flag.ExitOnError)
	via := fs.String("via", sim.ForkExec.Name(), sim.StrategyNames())
	heap := fs.String("heap", "1MiB", "parent dirty-heap size")
	cpus := fs.Int("cpus", 1, "simulated CPU count")
	seed := fs.Uint64("seed", 0, "install fault.Chaos(seed, 0) (0 = no fault injection)")
	out := fs.String("o", "", "write the trace to FILE (default stdout)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: forkbench trace [flags] [prog arg...]  (default: echo hello road)\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
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
	argv := fs.Args()
	if len(argv) == 0 {
		argv = []string{"echo", "hello", "road"}
	}

	sys, err := sim.NewSystem(sim.WithTrace(), sim.WithCPUs(*cpus))
	if err != nil {
		return err
	}
	if err := sys.DirtyHost(heapBytes, false); err != nil {
		return err
	}
	if *seed != 0 {
		// Arm after the warm-up, like load's chaos mode: the dirty
		// parent is set up cleanly, only the traced command runs
		// under the waves.
		sys.SetFaultSchedule(fault.Chaos(*seed, 0))
	}
	cmd := sys.Command(argv[0], argv[1:]...).Via(st)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Run(); err != nil && sim.AsExitError(err) == nil {
		// Injected faults may legitimately kill the command or refuse
		// its creation with a kernel errno; the trace still tells the
		// story. Anything else is a real harness failure.
		if *seed == 0 {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: command failed under injected faults: %v\n", err)
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
	if _, err := io.WriteString(w, sys.Trace().Render()); err != nil {
		return err
	}
	return nil
}
