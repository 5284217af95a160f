package sim

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sig"
	"repro/internal/vfs"
)

// Strategy selects the process-creation API a command is launched
// through — the lines of the paper's Figure 1, selectable per command
// so any workload can be run through every API the paper compares.
//
// It is core.Method under its public name: the repo's one strategy
// type, whose one table holds every strategy's report name (String:
// "fork+exec", "posix_spawn", …) and command-line name (Name: "fork",
// "spawn", …). The zero value is Spawn, and Valid reports whether a
// value is one of the six.
type Strategy = core.Method

// Creation strategies.
const (
	// Spawn is posix_spawn (§6.1): never duplicates the parent;
	// cost independent of the parent's size. The default.
	Spawn Strategy = core.MethodSpawn
	// ForkExec is classic COW fork followed by exec.
	ForkExec Strategy = core.MethodForkExec
	// VforkExec shares the parent's address space until exec.
	VforkExec Strategy = core.MethodVforkExec
	// Builder is the cross-process construction API (§6.2): an
	// empty child populated piece by piece, then started.
	Builder Strategy = core.MethodBuilder
	// EmulatedFork is fork implemented in user space on top of the
	// cross-process API (§5's "a fork-less kernel can still run
	// fork, slowly") followed by exec.
	EmulatedFork Strategy = core.MethodEmulatedForkExec
	// EagerForkExec is the 1970s ablation: fork that physically
	// copies every resident page, then exec.
	EagerForkExec Strategy = core.MethodForkEagerExec
)

// Strategies lists the five creation APIs the paper compares.
func Strategies() []Strategy {
	return []Strategy{ForkExec, VforkExec, Spawn, Builder, EmulatedFork}
}

// ParseStrategy maps a command-line name (one of StrategyNames) to its
// Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for st := Strategy(0); st.Valid(); st++ {
		if st.Name() == name {
			return st, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown strategy %q (%s)", name, StrategyNames())
}

// StrategyNames is every strategy's command-line name in Strategy
// order, joined by "|": "spawn|fork|vfork|builder|emufork|eager". Every
// -via help text prints it.
func StrategyNames() string {
	var names []string
	for st := Strategy(0); st.Valid(); st++ {
		names = append(names, st.Name())
	}
	return strings.Join(names, "|")
}

// Cmd describes a simulated process to run, in the style of
// exec.Cmd: populate the fields, pick a Strategy with Via, then
// Start/Wait or Run. A Cmd can be used once.
type Cmd struct {
	// Path is the absolute path of the image inside the machine.
	Path string

	// Args is the argv, Args[0] included (set by Command).
	Args []string

	// Dir is the child's working directory ("" = the host's).
	Dir string

	// Stdin feeds the child's fd 0. A *File (pipe end, simulated
	// file) is wired directly; any other io.Reader is mounted as a
	// device the child reads; nil inherits the host's stdin.
	Stdin io.Reader

	// Stdout receives the child's fd 1 (same rules as Stdin).
	Stdout io.Writer

	// Stderr receives fd 2. If Stderr == Stdout the two descriptors
	// share one open-file description, exactly like 2>&1.
	Stderr io.Writer

	// ExtraFiles are inherited as fds 3, 4, ... — explicit, opt-in
	// inheritance, the paper's answer to fork's copy-everything.
	ExtraFiles []*File

	// SigDefault resets these signals to their default disposition
	// in the child; SigIgnore sets them ignored (spawn attributes).
	SigDefault []Signal
	SigIgnore  []Signal

	// Process is the running child after Start.
	Process *Process

	// ProcessState is the decoded exit state after Wait.
	ProcessState *ProcessState

	sys      *System
	via      Strategy
	devPaths []string // per-command device nodes to unlink after Wait
}

// Command returns a Cmd to run path with the given arguments on s. A
// bare name (no '/') is looked up in /bin. Args[0] follows the name,
// as with exec.Command.
func (s *System) Command(path string, args ...string) *Cmd {
	if !strings.Contains(path, "/") {
		path = "/bin/" + path
	}
	return &Cmd{
		Path: path,
		Args: append([]string{path}, args...),
		sys:  s,
	}
}

// Via selects the creation strategy (default Spawn) and returns c for
// chaining: sys.Command("echo", "hi").Via(sim.ForkExec).Run().
func (c *Cmd) Via(st Strategy) *Cmd {
	c.via = st
	return c
}

// Start creates the child through the selected strategy and makes it
// runnable. It does not advance virtual time past creation — the child
// executes during Wait. On failure no process is left behind.
func (c *Cmd) Start() error {
	p, err := c.Create()
	if err != nil {
		return err
	}
	if err := p.Start(); err != nil {
		p.Destroy()
		c.cleanup()
		c.Process = nil
		return err
	}
	return nil
}

// Create is Start without scheduling: the child is fully constructed
// (image, descriptors, cwd, signal state) but parked, so creation cost
// can be measured or the process inspected before its first
// instruction. Start it with Process.Start.
func (c *Cmd) Create() (*Process, error) {
	if c.Process != nil {
		return nil, fmt.Errorf("sim: command already started")
	}
	if c.sys == nil {
		return nil, fmt.Errorf("sim: Cmd must come from System.Command")
	}
	k := c.sys.k
	child, elapsed, err := core.CreateChild(k, c.sys.host, c.via, c.Path, c.Args)
	if err != nil {
		c.cleanup()
		return nil, fmt.Errorf("sim: %v %s: %w", c.via, c.Path, err)
	}
	if err := c.wire(child); err != nil {
		k.DestroyProcess(child)
		c.cleanup()
		return nil, err
	}
	c.Process = &Process{sys: c.sys, raw: child, creation: time.Duration(elapsed), cleanup: c.cleanup}
	return c.Process, nil
}

// wire gives the child exactly the descriptors, directory, and signal
// state the Cmd describes — uniformly across strategies, so the same
// workload observes the same environment under every creation API.
func (c *Cmd) wire(child *kernel.Process) error {
	stdin, err := c.inputFile(child)
	if err != nil {
		return err
	}
	stdout, err := c.outputFile(c.Stdout, 1, child)
	if err != nil {
		stdin.Release()
		return err
	}
	var stderr *vfs.OpenFile
	if c.Stderr != nil && interfaceEqual(c.Stderr, c.Stdout) {
		stderr = stdout.Retain() // 2>&1: shared description, shared offset
	} else {
		stderr, err = c.outputFile(c.Stderr, 2, child)
		if err != nil {
			stdin.Release()
			stdout.Release()
			return err
		}
	}

	// Fork-family strategies arrive with a copy of the host's table,
	// Builder with an empty one. Reset to the os/exec contract:
	// stdio plus ExtraFiles, nothing else.
	fds := child.FDs()
	fds.CloseAll()
	stdio := []*vfs.OpenFile{stdin, stdout, stderr}
	for fd, of := range stdio {
		if err := fds.InstallAt(of, false, fd); err != nil {
			// InstallAt does not consume on failure: release the
			// failed reference and every not-yet-installed one.
			for _, rest := range stdio[fd:] {
				rest.Release()
			}
			return err
		}
	}
	for i, f := range c.ExtraFiles {
		if f == nil || f.raw() == nil {
			return fmt.Errorf("sim: ExtraFiles[%d] is closed", i)
		}
		of := f.raw().Retain()
		if err := fds.InstallAt(of, false, 3+i); err != nil {
			of.Release()
			return err
		}
	}

	if c.Dir != "" {
		dir, err := c.sys.k.FS().Resolve(nil, c.Dir)
		if err != nil {
			return fmt.Errorf("sim: chdir %s: %w", c.Dir, err)
		}
		if err := child.SetCwd(dir); err != nil {
			return fmt.Errorf("sim: chdir %s: %w", c.Dir, err)
		}
	}

	for _, s := range c.SigDefault {
		if err := child.Signals().Set(s, sig.Disposition{Kind: sig.ActDefault}); err != nil {
			return err
		}
	}
	for _, s := range c.SigIgnore {
		if err := child.Signals().Set(s, sig.Disposition{Kind: sig.ActIgnore}); err != nil {
			return err
		}
	}
	return nil
}

// interfaceEqual protects against panics from comparing two interface
// values with uncomparable dynamic types (same guard as os/exec).
func interfaceEqual(a, b any) bool {
	defer func() { recover() }()
	return a == b
}

// inherit retains the host's descriptor fd for the child.
func (c *Cmd) inherit(fd int) (*vfs.OpenFile, error) {
	of, err := c.sys.host.FDs().Get(fd)
	if err != nil {
		return nil, fmt.Errorf("sim: host has no fd %d to inherit: %w", fd, err)
	}
	return of.Retain(), nil
}

// inputFile turns Cmd.Stdin into the child's fd 0: nil inherits the
// host's stdin, a *File is wired directly, any other io.Reader is
// mounted as a per-command device the child reads from.
func (c *Cmd) inputFile(child *kernel.Process) (*vfs.OpenFile, error) {
	switch x := c.Stdin.(type) {
	case nil:
		return c.inherit(0)
	case *File:
		if x.raw() == nil {
			return nil, fmt.Errorf("sim: stdin: file already closed")
		}
		return x.raw().Retain(), nil
	default:
		return c.deviceFile(0, child, &vfs.ConsoleDevice{In: x})
	}
}

// outputFile is inputFile's write-side twin for fds 1 and 2.
func (c *Cmd) outputFile(w io.Writer, fd int, child *kernel.Process) (*vfs.OpenFile, error) {
	switch x := w.(type) {
	case nil:
		return c.inherit(fd)
	case *File:
		if x.raw() == nil {
			return nil, fmt.Errorf("sim: fd %d: file already closed", fd)
		}
		return x.raw().Retain(), nil
	default:
		return c.deviceFile(fd, child, &vfs.ConsoleDevice{Out: x})
	}
}

// deviceFile mounts dev at a per-command /dev node and opens it.
func (c *Cmd) deviceFile(fd int, child *kernel.Process, dev vfs.Device) (*vfs.OpenFile, error) {
	path := fmt.Sprintf("/dev/cmd%d-fd%d", child.Pid, fd)
	ino, err := c.sys.k.FS().Mknod(path, dev)
	if err != nil {
		return nil, err
	}
	c.devPaths = append(c.devPaths, path)
	flags := vfs.ORdOnly
	if fd > 0 {
		flags = vfs.OWrOnly
	}
	return vfs.NewOpenFile(ino, flags), nil
}

// cleanup unlinks the per-command device nodes.
func (c *Cmd) cleanup() {
	for _, p := range c.devPaths {
		_ = c.sys.k.FS().Remove(nil, p)
	}
	c.devPaths = nil
}

// Wait drives the machine until the child exits, decodes its state
// into ProcessState, and returns nil on success or an *ExitError on a
// non-zero exit or signal death — never a raw status word.
func (c *Cmd) Wait() error {
	if c.Process == nil {
		return fmt.Errorf("sim: Wait before Start")
	}
	ps, err := c.Process.Wait()
	c.cleanup()
	if err != nil {
		return err
	}
	c.ProcessState = ps
	if !ps.Success() {
		return &ExitError{ProcessState: ps}
	}
	return nil
}

// Run starts the command and waits for it to complete.
func (c *Cmd) Run() error {
	if err := c.Start(); err != nil {
		return err
	}
	return c.Wait()
}

// Output runs the command and returns everything it wrote to stdout.
func (c *Cmd) Output() ([]byte, error) {
	if c.Stdout != nil {
		return nil, fmt.Errorf("sim: Output with Stdout already set")
	}
	var buf bytes.Buffer
	c.Stdout = &buf
	err := c.Run()
	return buf.Bytes(), err
}

// CombinedOutput runs the command and returns interleaved stdout and
// stderr.
func (c *Cmd) CombinedOutput() ([]byte, error) {
	if c.Stdout != nil || c.Stderr != nil {
		return nil, fmt.Errorf("sim: CombinedOutput with Stdout/Stderr already set")
	}
	var buf bytes.Buffer
	c.Stdout = &buf
	c.Stderr = &buf
	err := c.Run()
	return buf.Bytes(), err
}
