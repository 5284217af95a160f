// Package sig implements POSIX-style signal machinery for the
// simulator: signal numbers, sets, dispositions, and the inheritance
// rules across fork/exec/spawn that the paper's composability and
// security arguments hinge on (fork copies handlers pointing into the
// old image; exec resets caught signals to default but preserves
// ignored ones; posix_spawn attributes can reset dispositions
// explicitly).
package sig

import "fmt"

// Signal is a signal number, 1-based like POSIX.
type Signal int

// Signals supported by the simulator (Linux x86-64 numbering).
const (
	SIGHUP  Signal = 1
	SIGINT  Signal = 2
	SIGQUIT Signal = 3
	SIGILL  Signal = 4
	SIGABRT Signal = 6
	SIGFPE  Signal = 8
	SIGKILL Signal = 9
	SIGUSR1 Signal = 10
	SIGSEGV Signal = 11
	SIGUSR2 Signal = 12
	SIGPIPE Signal = 13
	SIGALRM Signal = 14
	SIGTERM Signal = 15
	SIGCHLD Signal = 17
	SIGCONT Signal = 18
	SIGSTOP Signal = 19

	// MaxSignal bounds the signal space.
	MaxSignal Signal = 31
)

var names = map[Signal]string{
	SIGHUP: "SIGHUP", SIGINT: "SIGINT", SIGQUIT: "SIGQUIT",
	SIGILL: "SIGILL", SIGABRT: "SIGABRT", SIGFPE: "SIGFPE",
	SIGKILL: "SIGKILL", SIGUSR1: "SIGUSR1", SIGSEGV: "SIGSEGV",
	SIGUSR2: "SIGUSR2", SIGPIPE: "SIGPIPE", SIGALRM: "SIGALRM",
	SIGTERM: "SIGTERM", SIGCHLD: "SIGCHLD", SIGCONT: "SIGCONT",
	SIGSTOP: "SIGSTOP",
}

func (s Signal) String() string {
	if n, ok := names[s]; ok {
		return n
	}
	return fmt.Sprintf("SIG%d", int(s))
}

// Valid reports whether s is a deliverable signal number.
func (s Signal) Valid() bool { return s >= 1 && s <= MaxSignal }

// Set is a signal set (bit i+1 represents signal i+1... bit n for
// signal n).
type Set uint64

// MakeSet builds a set from signals.
func MakeSet(sigs ...Signal) Set {
	var s Set
	for _, sg := range sigs {
		s = s.Add(sg)
	}
	return s
}

// Add returns s with sg included.
func (s Set) Add(sg Signal) Set {
	if !sg.Valid() {
		return s
	}
	return s | 1<<uint(sg)
}

// Del returns s without sg.
func (s Set) Del(sg Signal) Set { return s &^ (1 << uint(sg)) }

// Has reports membership.
func (s Set) Has(sg Signal) bool { return s&(1<<uint(sg)) != 0 }

// Union returns s ∪ o.
func (s Set) Union(o Set) Set { return s | o }

// Minus returns s \ o.
func (s Set) Minus(o Set) Set { return s &^ o }

// Empty reports whether no signals are in the set.
func (s Set) Empty() bool { return s == 0 }

// First returns the lowest-numbered signal in the set, or 0.
func (s Set) First() Signal {
	for sg := Signal(1); sg <= MaxSignal; sg++ {
		if s.Has(sg) {
			return sg
		}
	}
	return 0
}

// Signals lists the members in ascending order.
func (s Set) Signals() []Signal {
	var out []Signal
	for sg := Signal(1); sg <= MaxSignal; sg++ {
		if s.Has(sg) {
			out = append(out, sg)
		}
	}
	return out
}

// ActKind is what happens when a signal is delivered.
type ActKind uint8

// Disposition kinds.
const (
	ActDefault ActKind = iota
	ActIgnore
	ActHandler
)

func (k ActKind) String() string {
	switch k {
	case ActDefault:
		return "default"
	case ActIgnore:
		return "ignore"
	case ActHandler:
		return "handler"
	}
	return fmt.Sprintf("act(%d)", int(k))
}

// Disposition is one signal's configured action.
type Disposition struct {
	Kind    ActKind
	Handler uint64 // user-space PC, when Kind == ActHandler
	Mask    Set    // additional signals blocked during the handler
}

// Table holds a process's dispositions. The zero value has every
// signal at default. The dispositions sit behind a pointer that stays
// nil while every signal is at default, as in almost every process, so
// a default table costs 8 host bytes rather than 768, and cloning one
// copies nothing. Set allocates the array on the first non-default
// disposition, and a clone gets its own copy of it; no two tables ever
// share one.
type Table struct {
	acts *[MaxSignal + 1]Disposition
}

// Get returns the disposition for sg.
func (t *Table) Get(sg Signal) Disposition {
	if !sg.Valid() || t.acts == nil {
		return Disposition{}
	}
	return t.acts[sg]
}

// Set installs a disposition. SIGKILL and SIGSTOP cannot be caught or
// ignored.
func (t *Table) Set(sg Signal, d Disposition) error {
	if !sg.Valid() {
		return fmt.Errorf("sig: invalid signal %d", int(sg))
	}
	if (sg == SIGKILL || sg == SIGSTOP) && d.Kind != ActDefault {
		return fmt.Errorf("sig: %v cannot be caught or ignored", sg)
	}
	if t.acts == nil {
		if d == (Disposition{}) {
			return nil
		}
		t.acts = new([MaxSignal + 1]Disposition)
	}
	t.acts[sg] = d
	return nil
}

// Clone copies the table — the fork path. Every handler address comes
// along, valid or not in the child's eventual image.
func (t *Table) Clone() *Table {
	if t.acts == nil {
		return &Table{}
	}
	acts := *t.acts
	return &Table{acts: &acts}
}

// ResetForExec applies the POSIX exec rule: caught signals revert to
// default (their handler addresses are meaningless in the new image);
// ignored and default dispositions survive.
func (t *Table) ResetForExec() {
	if t.acts == nil {
		return
	}
	for i := range t.acts {
		if t.acts[i].Kind == ActHandler {
			t.acts[i] = Disposition{}
		}
	}
}

// ResetAll restores every disposition to default (posix_spawn's
// POSIX_SPAWN_SETSIGDEF for the given set).
func (t *Table) ResetAll(set Set) {
	if t.acts == nil {
		return
	}
	for sg := Signal(1); sg <= MaxSignal; sg++ {
		if set.Has(sg) {
			t.acts[sg] = Disposition{}
		}
	}
}

// DefaultEffect describes a signal's default action.
type DefaultEffect uint8

// Default effects.
const (
	EffectTerminate DefaultEffect = iota
	EffectIgnore
	EffectStop
	EffectContinue
)

// DefaultFor reports what ActDefault does for sg.
func DefaultFor(sg Signal) DefaultEffect {
	switch sg {
	case SIGCHLD:
		return EffectIgnore
	case SIGCONT:
		return EffectContinue
	case SIGSTOP:
		return EffectStop
	default:
		return EffectTerminate
	}
}
