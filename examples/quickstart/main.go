// Quickstart: boot a simulated machine and run a process on it with
// the public sim API — the whole reproduction in a dozen lines.
//
// sim is deliberately shaped like os/exec: a System boots the machine,
// Command describes a process, Run/Output execute it, and exit status
// comes back decoded. The default strategy is the paper's posix_spawn;
// the last two commands compare it with fork+exec.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/sim"
)

func main() {
	// A 4 GiB machine with the built-in userland installed in /bin.
	sys, err := sim.NewSystem()
	if err != nil {
		log.Fatal(err)
	}

	// Run /bin/echo and capture its stdout, exactly like exec.Command.
	out, err := sys.Command("echo", "hello", "from", "the", "simulator").Output()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("echo wrote %q in %v of virtual time\n", out, sys.VirtualTime())

	// Exit status is decoded, never a raw status word.
	err = sys.Command("false").Run()
	if exit := sim.AsExitError(err); exit != nil {
		fmt.Printf("false reported: %v (code %d, signaled=%v)\n",
			exit.ProcessState, exit.ExitCode(), exit.Signaled())
	}

	// Any command can be launched through any of the paper's
	// process-creation APIs — same workload, different strategy — and
	// each reports what creating its child cost.
	cost := func(via sim.Strategy) time.Duration {
		cmd := sys.Command("echo", "again, via", via.String()).Via(via)
		echoed, err := cmd.Output()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s printed %q; creating it cost %v\n", via, echoed, cmd.Process.CreationCost())
		return cmd.Process.CreationCost()
	}
	verdict := "cheaper"
	if cost(sim.ForkExec) > cost(sim.Spawn) {
		verdict = "dearer"
	}
	fmt.Printf("from this small parent fork+exec is %s than posix_spawn; forkbench fig1 grows the parent\n", verdict)
}
