// Command forkrun boots a simulated machine and runs a program on it,
// wiring the simulated console to the real terminal.
//
// Usage:
//
//	forkrun [flags] <program> [args...]
//
// <program> is either the name of a built-in userland program (see
// `forkrun -list`) or a path to a .kxi image produced by kxasm.
//
//	-ram MIB       physical memory, a whole number of MiB (default 4096)
//	-strict        strict commit accounting (overcommit_memory=2)
//	-eager         boot with eager-copy fork (sim.WithEagerFork): every
//	               fork the program itself makes copies its resident
//	               pages; -via eager makes the command's own creation
//	               an eager fork
//	-via STRATEGY  creation strategy: spawn|fork|vfork|builder|emufork|eager
//	-trace         print exit diagnostics (virtual time, faults, ...)
//	-list          list built-in programs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// maxRAMMiB is the largest -ram whose byte count fits in 64 bits.
const maxRAMMiB = 1<<44 - 1

// run is forkrun with its arguments and standard streams passed in; it
// returns the process exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("forkrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ram := fs.Uint64("ram", 4096, "physical memory in MiB")
	strict := fs.Bool("strict", false, "strict commit accounting")
	eager := fs.Bool("eager", false, "eager-copy fork")
	via := fs.String("via", sim.Spawn.Name(), "creation strategy: "+sim.StrategyNames())
	trace := fs.Bool("trace", false, "print diagnostics on exit")
	list := fs.Bool("list", false, "list built-in programs")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(sim.Programs(), "\n"))
		return 0
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: forkrun [flags] <program> [args...]")
		return 2
	}
	if *ram > maxRAMMiB {
		fmt.Fprintf(stderr, "forkrun: -ram %d MiB does not fit in a 64-bit byte count (at most %d)\n", *ram, uint64(maxRAMMiB))
		return 2
	}
	strategy, err := sim.ParseStrategy(*via)
	if err != nil {
		return fail(stderr, err)
	}

	opts := []sim.Option{
		sim.WithRAM(*ram << 20),
		sim.WithConsole(stdout),
		sim.WithConsoleInput(stdin),
	}
	if *strict {
		opts = append(opts, sim.WithCommitPolicy(sim.CommitStrict))
	}
	if *eager {
		opts = append(opts, sim.WithEagerFork())
	}

	prog := fs.Arg(0)
	path := "/bin/" + prog
	if strings.ContainsAny(prog, "/.") {
		// Host path to a .kxi image.
		raw, err := os.ReadFile(prog)
		if err != nil {
			return fail(stderr, err)
		}
		path = "/bin/a.out"
		opts = append(opts, sim.WithImage(path, raw))
	} else if !slices.Contains(sim.Programs(), prog) {
		return fail(stderr, fmt.Errorf("unknown program %q (try -list)", prog))
	}

	sys, err := sim.NewSystem(opts...)
	if err != nil {
		return fail(stderr, err)
	}
	runErr := sys.Command(path, fs.Args()[1:]...).Via(strategy).Run()
	if *trace {
		st := sys.Stats()
		fmt.Fprintf(stderr, "---\nvirtual time: %v\ninstructions: %d\nsyscalls: %d\npage faults: %d\npage copies: %d\ncontext switches: %d\noom kills: %d\nsegv kills: %d\n",
			st.VirtualTime, st.Instructions, st.Syscalls, st.PageFaults, st.PageCopies, st.ContextSwitches, st.OOMKills, st.SegvKills)
	}
	if runErr != nil {
		if exit := sim.AsExitError(runErr); exit != nil {
			if exit.Signaled() {
				fmt.Fprintf(stderr, "forkrun: killed by %v\n", exit.Signal())
				return 128 + int(exit.Signal())
			}
			return exit.ExitCode()
		}
		fmt.Fprintln(stderr, "forkrun:", runErr)
		return 3
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "forkrun:", err)
	return 1
}
