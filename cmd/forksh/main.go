// Command forksh is an interactive shell on the simulated OS. It is
// the paper's §6 in miniature: a shell that never forks — every
// command, including pipelines and redirections, is launched through
// the sim package's spawn-based process API with descriptors wired
// explicitly.
//
// Built-ins: cd, pwd, ls, cat, ps, vmmap PID, time CMD, via STRATEGY,
// help, exit. External commands come from /bin (the ulib programs);
// "a | b | c" builds pipelines, "> file" redirects stdout.
//
// Usage:
//
//	forksh            # interactive
//	echo "cmds" | forksh
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/kernel"
	"repro/sim"
)

type shell struct {
	sys *sim.System
	cwd string
	via sim.Strategy // strategy for external commands (default spawn)
	out *bufio.Writer
}

func main() {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	sh, err := newShell(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "forksh:", err)
		os.Exit(1)
	}
	sh.repl(os.Stdin, isTerminalHint())
}

// newShell boots a machine and builds the (forkless) shell on it. The
// sim host process, whose stdio is already the console, is the shell.
func newShell(out *bufio.Writer) (*shell, error) {
	sys, err := sim.NewSystem(
		sim.WithRAM(4<<30),
		sim.WithConsole(out),
		sim.WithRunBudget(500_000_000),
	)
	if err != nil {
		return nil, err
	}
	sys.Host().Name = "forksh"
	return &shell{sys: sys, cwd: "/", out: out}, nil
}

// repl reads command lines until EOF or "exit".
func (s *shell) repl(input io.Reader, interactive bool) {
	in := bufio.NewScanner(input)
	for {
		if interactive {
			fmt.Fprintf(s.out, "forksh:%s$ ", s.cwd)
			s.out.Flush()
		}
		if !in.Scan() {
			break
		}
		line := strings.TrimSpace(in.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "exit" {
			break
		}
		if err := s.run(line); err != nil {
			fmt.Fprintf(s.out, "forksh: %v\n", err)
		}
		s.out.Flush()
	}
}

func isTerminalHint() bool {
	st, err := os.Stdin.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}

// run executes one command line.
func (s *shell) run(line string) error {
	// Redirection: split a trailing "> file".
	redirect := ""
	if i := strings.LastIndex(line, ">"); i >= 0 && !strings.Contains(line[i:], "|") {
		redirect = strings.TrimSpace(line[i+1:])
		line = strings.TrimSpace(line[:i])
	}
	stages := strings.Split(line, "|")
	for i := range stages {
		stages[i] = strings.TrimSpace(stages[i])
	}
	if len(stages) == 1 {
		argv := strings.Fields(stages[0])
		if done, err := s.builtin(argv); done {
			return err
		}
	}
	return s.pipeline(stages, redirect)
}

// builtin handles shell built-ins; done=false falls through to spawn.
func (s *shell) builtin(argv []string) (bool, error) {
	if len(argv) == 0 {
		return true, nil
	}
	k := s.sys.Kernel()
	switch argv[0] {
	case "cd":
		dst := "/"
		if len(argv) > 1 {
			dst = s.resolvePath(argv[1])
		}
		if _, err := s.sys.ReadDir(dst); err != nil {
			return true, fmt.Errorf("cd: %s: %v", dst, err)
		}
		s.cwd = dst
		return true, nil
	case "pwd":
		fmt.Fprintln(s.out, s.cwd)
		return true, nil
	case "ls":
		dir := s.cwd
		if len(argv) > 1 {
			dir = s.resolvePath(argv[1])
		}
		names, err := s.sys.ReadDir(dir)
		if err != nil {
			return true, fmt.Errorf("ls: %v", err)
		}
		fmt.Fprintln(s.out, strings.Join(names, "  "))
		return true, nil
	case "cat":
		if len(argv) < 2 {
			return false, nil // external cat copies console stdin
		}
		for _, a := range argv[1:] {
			data, err := s.sys.ReadFile(s.resolvePath(a))
			if err != nil {
				return true, fmt.Errorf("cat: %s: %v", a, err)
			}
			s.out.Write(data)
		}
		return true, nil
	case "ps":
		s.ps()
		return true, nil
	case "vmmap":
		if len(argv) != 2 {
			return true, fmt.Errorf("usage: vmmap PID")
		}
		var pid int
		fmt.Sscanf(argv[1], "%d", &pid)
		p := k.Lookup(kernel.PID(pid))
		if p == nil || p.Space() == nil {
			return true, fmt.Errorf("vmmap: no such process")
		}
		fmt.Fprint(s.out, p.Space().Dump())
		return true, nil
	case "time":
		if len(argv) < 2 {
			return true, fmt.Errorf("usage: time CMD...")
		}
		t0 := s.sys.VirtualTime()
		err := s.pipeline([]string{strings.Join(argv[1:], " ")}, "")
		fmt.Fprintf(s.out, "virtual %v\n", s.sys.VirtualTime()-t0)
		return true, err
	case "via":
		if len(argv) != 2 {
			fmt.Fprintf(s.out, "via %v (%s)\n", s.via, sim.StrategyNames())
			return true, nil
		}
		st, err := sim.ParseStrategy(argv[1])
		if err != nil {
			return true, err
		}
		s.via = st
		return true, nil
	case "help":
		fmt.Fprintln(s.out, "built-ins: cd pwd ls cat ps vmmap time via help exit")
		fmt.Fprintln(s.out, "programs:  "+strings.Join(sim.Programs(), " "))
		return true, nil
	}
	return false, nil
}

func (s *shell) resolvePath(p string) string {
	if strings.HasPrefix(p, "/") {
		return p
	}
	if s.cwd == "/" {
		return "/" + p
	}
	return s.cwd + "/" + p
}

func (s *shell) ps() {
	k := s.sys.Kernel()
	fmt.Fprintf(s.out, "%5s %-8s %-10s %s\n", "PID", "STATE", "RSS", "NAME")
	for pid := kernel.PID(1); pid < 4096; pid++ {
		p := k.Lookup(pid)
		if p == nil {
			continue
		}
		rss := uint64(0)
		if p.Space() != nil {
			rss = p.Space().RSS()
		}
		fmt.Fprintf(s.out, "%5d %-8s %-10d %s\n", p.Pid, p.State(), rss, p.Name)
	}
}

// pipeline launches each stage as a sim.Cmd with its descriptors wired
// through simulated pipes — no fork anywhere.
func (s *shell) pipeline(stages []string, redirect string) error {
	var cmds []*sim.Cmd
	for _, raw := range stages {
		argv := strings.Fields(raw)
		if len(argv) == 0 {
			return fmt.Errorf("empty pipeline stage")
		}
		path := argv[0]
		if !strings.HasPrefix(path, "/") {
			path = "/bin/" + path
		}
		if _, err := s.sys.Kernel().FS().Resolve(nil, path); err != nil {
			return fmt.Errorf("%s: command not found", argv[0])
		}
		cmd := s.sys.Command(path, argv[1:]...).Via(s.via)
		if s.cwd != "/" {
			cmd.Dir = s.cwd
		}
		cmds = append(cmds, cmd)
	}

	// Wire stage i's stdout to stage i+1's stdin; remember the
	// host-side pipe ends so they can be dropped once the children
	// hold their own references (otherwise EOF never propagates).
	var hostEnds []*sim.File
	for i := 0; i < len(cmds)-1; i++ {
		r, w := s.sys.Pipe()
		cmds[i].Stdout = w
		cmds[i+1].Stdin = r
		hostEnds = append(hostEnds, r, w)
	}
	if redirect != "" {
		f, err := s.sys.Create(s.resolvePath(redirect))
		if err != nil {
			return fmt.Errorf("> %s: %v", redirect, err)
		}
		cmds[len(cmds)-1].Stdout = f
		hostEnds = append(hostEnds, f)
	}

	started := 0
	var startErr error
	for _, cmd := range cmds {
		if err := cmd.Start(); err != nil {
			startErr = fmt.Errorf("start %s: %v", cmd.Args[0], err)
			break
		}
		started++
	}
	for _, f := range hostEnds {
		f.Close()
	}
	if startErr != nil {
		for _, cmd := range cmds[:started] {
			cmd.Process.Destroy()
		}
		return startErr
	}

	// Wait and report non-zero exits and signal deaths.
	var firstErr error
	for _, cmd := range cmds {
		err := cmd.Wait()
		switch {
		case err == nil:
		case sim.AsExitError(err) != nil:
			exit := sim.AsExitError(err)
			name := strings.TrimPrefix(cmd.Process.Raw().Name, "/bin/")
			if exit.Signaled() {
				fmt.Fprintf(s.out, "[%s killed by signal %d]\n", name, int(exit.Signal()))
			} else {
				fmt.Fprintf(s.out, "[%s exited %d]\n", name, exit.ExitCode())
			}
		case firstErr == nil:
			firstErr = err
		}
	}
	return firstErr
}
