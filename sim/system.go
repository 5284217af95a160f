package sim

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/addrspace"
	"repro/internal/asm"
	"repro/internal/cost"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/ulib"
	"repro/internal/vfs"
	"repro/sim/fault"
)

// CommitPolicy selects the machine's overcommit accounting
// (overcommit_memory in Linux terms); see §4.6 of the paper.
//
// It is mem.CommitPolicy under its public name: String names the three
// policies ("heuristic", "strict", "always"), and NewSystem refuses any
// other value.
type CommitPolicy = mem.CommitPolicy

// Commit policies.
const (
	// CommitHeuristic allows reservations freely unless a single
	// request exceeds RAM (Linux overcommit_memory=0). The default.
	CommitHeuristic CommitPolicy = mem.CommitHeuristic
	// CommitStrict refuses any reservation past RAM
	// (overcommit_memory=2): fork of a big parent fails up front.
	CommitStrict CommitPolicy = mem.CommitStrict
	// CommitAlways never refuses a reservation (overcommit_memory=1).
	CommitAlways CommitPolicy = mem.CommitAlways
)

type config struct {
	opts      kernel.Options
	userland  []string // nil = install everything
	programs  []srcProgram
	images    []rawImage
	runBudget uint64
}

type srcProgram struct{ path, src string }
type rawImage struct {
	path string
	raw  []byte
}

// Option configures NewSystem.
type Option func(*config)

// WithRAM sizes physical memory in bytes (default 4 GiB).
func WithRAM(bytes uint64) Option {
	return func(c *config) { c.opts.RAMBytes = bytes }
}

// WithCommitPolicy selects the overcommit policy (default
// CommitHeuristic).
func WithCommitPolicy(p CommitPolicy) Option {
	return func(c *config) { c.opts.Commit = p }
}

// WithEagerFork boots the machine with 1970s eager fork (the paper's
// §2 history, kept as an ablation) in place of copy-on-write: every
// fork the machine's own programs make, and every Kernel().Fork,
// copies each private resident page at fork time. It leaves a Cmd's
// creation to the Cmd's Strategy: Via(EagerForkExec) (-via eager) is
// eager fork for that one command, and Via(ForkExec) stays COW.
func WithEagerFork() Option {
	return func(c *config) { c.opts.EagerFork = true }
}

// WithCPUs sets the number of simulated CPUs (default 1, maximum 64).
// The machine stays deterministic at every CPU count: the scheduler
// executes CPUs in virtual-time order, so two runs of the same
// workload produce bit-identical results. More CPUs let runnable
// threads overlap in virtual time — and make fork more expensive,
// because every COW break and page-table downgrade now pays a
// TLB-shootdown IPI per other CPU running the address space.
func WithCPUs(n int) Option {
	return func(c *config) { c.opts.NumCPUs = n }
}

// WithFaults installs a deterministic fault-injection schedule at
// boot: every fallible kernel boundary (frame allocation, commit
// reservation, page-table clone, COW break, descriptor-table copy,
// exec image load, thread creation) consults it before proceeding. A
// schedule is a pure function of the operation's identity, so the same
// schedule replays bit-for-bit. Use fault.Observe() to count
// operations without failing any — the enumeration a fault sweep
// targets. See repro/sim/fault.
func WithFaults(s fault.Schedule) Option {
	return func(c *config) { c.opts.Faults = s }
}

// WithTrace enables the structured event trace: syscall enter/exit,
// scheduler dispatches, TLB-shootdown rounds, injected faults, and
// process lifecycle. Read it back with System.Trace; `forkbench
// trace` renders it from the command line.
func WithTrace() Option {
	return func(c *config) { c.opts.Trace = true }
}

// WithConsole wires the machine's /dev/console output to w.
func WithConsole(w io.Writer) Option {
	return func(c *config) { c.opts.ConsoleOut = w }
}

// WithConsoleInput wires /dev/console reads to r (default: EOF).
func WithConsoleInput(r io.Reader) Option {
	return func(c *config) { c.opts.ConsoleIn = r }
}

// WithUserland restricts the installed userland to the named built-in
// programs (default: all of them; see Programs).
func WithUserland(names ...string) Option {
	return func(c *config) { c.userland = append(c.userland, names...) }
}

// WithProgram assembles src (the ulib runtime is appended) and
// installs the image at path.
func WithProgram(path, src string) Option {
	return func(c *config) { c.programs = append(c.programs, srcProgram{path, src}) }
}

// WithImage installs a pre-assembled KXI image at path.
func WithImage(path string, raw []byte) Option {
	return func(c *config) { c.images = append(c.images, rawImage{path, raw}) }
}

// WithRunBudget caps each Wait at n executed instructions; a command
// still running when the budget runs out fails rather than hanging the
// host (default: unlimited).
func WithRunBudget(n uint64) Option {
	return func(c *config) { c.runBudget = n }
}

// System is one booted simulated machine: a kernel with its userland
// installed and a host process from which commands are launched.
type System struct {
	k         *kernel.Kernel
	host      *kernel.Process
	runBudget uint64
}

// NewSystem boots a machine: kernel, userland in /bin, and a host
// process (pid 1) whose stdin/stdout/stderr are the console. Commands
// created with Command are children of the host.
func NewSystem(options ...Option) (*System, error) {
	var c config
	for _, o := range options {
		o(&c)
	}
	// sim is the convenience layer: zero-value options select the
	// conventional machine (the kernel itself requires them).
	if c.opts.RAMBytes == 0 {
		c.opts.RAMBytes = 4 << 30
	}
	if c.opts.NumCPUs == 0 {
		c.opts.NumCPUs = 1
	}
	k, err := kernel.New(c.opts)
	if err != nil {
		return nil, err
	}
	if c.userland == nil {
		if err := ulib.InstallAll(k); err != nil {
			return nil, err
		}
	} else {
		for _, name := range c.userland {
			if err := ulib.Install(k, name, "/bin/"+name); err != nil {
				return nil, err
			}
		}
	}
	s := &System{k: k, runBudget: c.runBudget}
	for _, p := range c.programs {
		if err := s.InstallProgram(p.path, p.src); err != nil {
			return nil, err
		}
	}
	for _, im := range c.images {
		if err := s.InstallImageBytes(im.path, im.raw); err != nil {
			return nil, err
		}
	}

	s.host = k.NewSynthetic("host", nil)
	console, err := k.FS().Resolve(nil, "/dev/console")
	if err != nil {
		return nil, err
	}
	for fd := 0; fd < 3; fd++ {
		flags := vfs.ORdOnly
		if fd > 0 {
			flags = vfs.OWrOnly
		}
		if err := s.host.FDs().InstallAt(vfs.NewOpenFile(console, flags), false, fd); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Programs lists the built-in userland programs, sorted.
func Programs() []string {
	names := make([]string, 0, len(ulib.Sources))
	for n := range ulib.Sources {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Kernel exposes the underlying simulated kernel — the substrate
// escape hatch for callers that need raw process-table, memory, or
// filesystem access.
func (s *System) Kernel() *kernel.Kernel { return s.k }

// Host returns the host process commands are launched from.
func (s *System) Host() *kernel.Process { return s.host }

// VirtualTime reports the machine's elapsed virtual time: the
// furthest-ahead CPU clock.
func (s *System) VirtualTime() time.Duration {
	return time.Duration(s.k.Elapsed())
}

// NumCPUs reports the machine's simulated CPU count.
func (s *System) NumCPUs() int { return s.k.NumCPUs() }

// Trace returns the machine's structured event trace, or nil when the
// system was booted without WithTrace.
func (s *System) Trace() *fault.Recorder { return s.k.Tracer() }

// Faults returns the machine's fault-injection engine — per-point
// operation counts plus the installed schedule — or nil when no
// schedule was ever installed.
func (s *System) Faults() *fault.Injector { return s.k.Faults() }

// SetFaultSchedule installs (or replaces) the fault schedule on a
// running machine. Installing after setup lets a harness warm a
// machine cleanly and then subject only the measured phase to chaos.
func (s *System) SetFaultSchedule(sched fault.Schedule) { s.k.SetFaultSchedule(sched) }

// Stats is a snapshot of the machine's counters.
type Stats struct {
	VirtualTime time.Duration
	// Counters are the cost meter's event counters: page faults and
	// copies, TLB shootdowns (the SMP fork tax), context switches,
	// syscalls, instructions and the rest.
	cost.Counters
	OOMKills  int
	SegvKills int

	// NumCPUs is the simulated CPU count; the per-CPU slices below
	// are indexed by CPU id.
	NumCPUs int
	// CPUBusy is each CPU's busy virtual time (clock minus idle).
	CPUBusy []time.Duration
	// CPUUtilization is CPUBusy over VirtualTime, per CPU (0 when
	// no time has passed).
	CPUUtilization []float64
}

// Stats snapshots the cost meter, kill counters, and per-CPU
// scheduler accounting.
func (s *System) Stats() Stats {
	st := Stats{
		VirtualTime: time.Duration(s.k.Elapsed()),
		Counters:    s.k.Meter().Counters,
		OOMKills:    s.k.OOMKills,
		SegvKills:   s.k.SegvKills,
		NumCPUs:     s.k.NumCPUs(),
	}
	st.CPUBusy = make([]time.Duration, st.NumCPUs)
	st.CPUUtilization = make([]float64, st.NumCPUs)
	for _, cs := range s.k.CPUStates() {
		st.CPUBusy[cs.CPU] = time.Duration(cs.Busy)
		if st.VirtualTime > 0 {
			st.CPUUtilization[cs.CPU] = float64(cs.Busy) / float64(st.VirtualTime)
		}
	}
	return st
}

// InstallProgram assembles src (runtime appended) and installs it.
func (s *System) InstallProgram(path, src string) error {
	im, err := asm.Assemble(src + ulib.Runtime)
	if err != nil {
		return fmt.Errorf("sim: assemble %s: %w", path, err)
	}
	return s.k.InstallImage(path, im)
}

// InstallImageBytes validates raw as a KXI image and writes it at path.
func (s *System) InstallImageBytes(path string, raw []byte) error {
	if _, err := image.DecodeHeader(raw); err != nil {
		return fmt.Errorf("sim: %s: not a KXI image: %w", path, err)
	}
	_, err := s.k.FS().WriteFile(path, raw)
	return err
}

// WriteFile creates (or truncates) a simulated file with data.
func (s *System) WriteFile(path string, data []byte) error {
	_, err := s.k.FS().WriteFile(path, data)
	return err
}

// ReadFile returns a copy of a simulated file's contents.
func (s *System) ReadFile(path string) ([]byte, error) {
	ino, err := s.k.FS().Resolve(nil, path)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), ino.Data()...), nil
}

// ReadDir lists a simulated directory.
func (s *System) ReadDir(path string) ([]string, error) {
	return s.k.FS().ReadDir(nil, path)
}

// DirtyHost maps and write-touches an anonymous region of the given
// size in the host process, making it the large resident parent of the
// paper's Figure 1 sweeps. huge selects 2 MiB pages.
func (s *System) DirtyHost(bytes uint64, huge bool) error {
	if bytes == 0 {
		return nil
	}
	ps := uint64(mem.PageSize)
	if huge {
		ps = mem.HugeSize
	}
	bytes = (bytes + ps - 1) &^ (ps - 1)
	vma, err := s.host.Space().Map(0, bytes, addrspace.Read|addrspace.Write, addrspace.MapOpts{
		Kind: addrspace.KindAnon, Name: "workset", Huge: huge,
	})
	if err != nil {
		return fmt.Errorf("sim: dirty host: %w", err)
	}
	return s.host.Space().Touch(vma.Start, bytes, addrspace.AccessWrite)
}
