package sig

import (
	"testing"
	"testing/quick"
)

func TestSetOps(t *testing.T) {
	s := MakeSet(SIGINT, SIGTERM)
	if !s.Has(SIGINT) || !s.Has(SIGTERM) || s.Has(SIGKILL) {
		t.Errorf("membership wrong: %b", s)
	}
	s = s.Del(SIGINT)
	if s.Has(SIGINT) {
		t.Error("Del failed")
	}
	if s.First() != SIGTERM {
		t.Errorf("First = %v", s.First())
	}
	u := s.Union(MakeSet(SIGHUP))
	if !u.Has(SIGHUP) || !u.Has(SIGTERM) {
		t.Error("Union failed")
	}
	m := u.Minus(MakeSet(SIGTERM))
	if m.Has(SIGTERM) || !m.Has(SIGHUP) {
		t.Error("Minus failed")
	}
	if !Set(0).Empty() || u.Empty() {
		t.Error("Empty wrong")
	}
	got := MakeSet(SIGQUIT, SIGHUP, SIGTERM).Signals()
	want := []Signal{SIGHUP, SIGQUIT, SIGTERM}
	if len(got) != len(want) {
		t.Fatalf("Signals = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Signals[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Invalid signals never enter a set.
	if s := MakeSet(Signal(0), Signal(99)); !s.Empty() {
		t.Errorf("invalid signals entered set: %b", s)
	}
}

func TestTableRules(t *testing.T) {
	var tbl Table
	if err := tbl.Set(SIGUSR1, Disposition{Kind: ActHandler, Handler: 0x1234}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Set(SIGINT, Disposition{Kind: ActIgnore}); err != nil {
		t.Fatal(err)
	}
	// KILL and STOP are immutable.
	if err := tbl.Set(SIGKILL, Disposition{Kind: ActIgnore}); err == nil {
		t.Error("caught SIGKILL")
	}
	if err := tbl.Set(SIGSTOP, Disposition{Kind: ActHandler, Handler: 1}); err == nil {
		t.Error("caught SIGSTOP")
	}
	if err := tbl.Set(SIGKILL, Disposition{}); err != nil {
		t.Errorf("resetting SIGKILL to default should be a no-op success: %v", err)
	}

	// Clone is independent.
	cl := tbl.Clone()
	cl.Set(SIGUSR1, Disposition{Kind: ActIgnore})
	if tbl.Get(SIGUSR1).Kind != ActHandler {
		t.Error("clone aliased the original")
	}

	// Exec: handlers reset, ignore survives.
	tbl.ResetForExec()
	if tbl.Get(SIGUSR1).Kind != ActDefault {
		t.Error("exec kept a handler")
	}
	if tbl.Get(SIGINT).Kind != ActIgnore {
		t.Error("exec dropped an ignore")
	}

	// ResetAll applies only to the given set.
	tbl.Set(SIGTERM, Disposition{Kind: ActIgnore})
	tbl.ResetAll(MakeSet(SIGTERM))
	if tbl.Get(SIGTERM).Kind != ActDefault {
		t.Error("ResetAll missed SIGTERM")
	}
	if tbl.Get(SIGINT).Kind != ActIgnore {
		t.Error("ResetAll touched SIGINT")
	}
}

// TestTableCloneNeverAliases: a default table holds no dispositions,
// so setting a default disposition on one allocates nothing; and a
// table cloned before or after its first non-default Set never shares
// dispositions with its source, in either direction — including a
// clone copied over another table, as the fork emulation does through
// Signals().
func TestTableCloneNeverAliases(t *testing.T) {
	fresh := make([]Table, 101) // AllocsPerRun's warm-up run and 100 more
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		if err := fresh[i].Set(SIGTERM, Disposition{}); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("Set of a default disposition on a default table allocated %v times per call", n)
	}
	for i := range fresh {
		if fresh[i].acts != nil {
			t.Fatalf("table %d holds dispositions after a default Set", i)
		}
	}

	var src Table
	before := src.Clone()
	handler := Disposition{Kind: ActHandler, Handler: 0x400100}
	if err := src.Set(SIGUSR1, handler); err != nil {
		t.Fatal(err)
	}
	after := src.Clone()
	var copied Table
	copied = *src.Clone()
	if before.Get(SIGUSR1).Kind != ActDefault {
		t.Error("a clone made before Set sees it")
	}
	for name, c := range map[string]*Table{"after": after, "copied": &copied} {
		if c.Get(SIGUSR1) != handler {
			t.Errorf("clone %s lost the handler", name)
		}
	}
	// Writes through each clone stay on it.
	before.Set(SIGUSR2, Disposition{Kind: ActIgnore})
	after.Set(SIGUSR1, Disposition{Kind: ActIgnore})
	copied.Set(SIGHUP, Disposition{Kind: ActIgnore})
	copied.ResetForExec()
	if src.Get(SIGUSR2).Kind != ActDefault || src.Get(SIGHUP).Kind != ActDefault || src.Get(SIGUSR1) != handler {
		t.Error("a write through a clone reached its source")
	}
	// And writes through the source stay on it.
	src.Set(SIGINT, Disposition{Kind: ActIgnore})
	src.ResetAll(MakeSet(SIGUSR1))
	for name, c := range map[string]*Table{"before": before, "after": after, "copied": &copied} {
		if c.Get(SIGINT).Kind != ActDefault {
			t.Errorf("a write through the source reached clone %s", name)
		}
	}
	if after.Get(SIGUSR1).Kind != ActIgnore || copied.Get(SIGUSR1) != (Disposition{}) {
		t.Errorf("clones read %v and %v for SIGUSR1, want ignore and default", after.Get(SIGUSR1), copied.Get(SIGUSR1))
	}
}

func TestDefaults(t *testing.T) {
	if DefaultFor(SIGCHLD) != EffectIgnore {
		t.Error("SIGCHLD default should be ignore")
	}
	if DefaultFor(SIGKILL) != EffectTerminate || DefaultFor(SIGSEGV) != EffectTerminate {
		t.Error("fatal defaults wrong")
	}
	if DefaultFor(SIGSTOP) != EffectStop || DefaultFor(SIGCONT) != EffectContinue {
		t.Error("job-control defaults wrong")
	}
}

func TestStrings(t *testing.T) {
	if SIGSEGV.String() != "SIGSEGV" {
		t.Errorf("SIGSEGV prints as %q", SIGSEGV.String())
	}
	if Signal(25).String() != "SIG25" {
		t.Errorf("unknown prints as %q", Signal(25).String())
	}
}

// TestQuickSetShadow: Add/Del agree with a map-based shadow set.
func TestQuickSetShadow(t *testing.T) {
	f := func(ops []uint16) bool {
		var s Set
		shadow := map[Signal]bool{}
		for _, o := range ops {
			sg := Signal(int(o)%int(MaxSignal) + 1)
			if o%2 == 0 {
				s = s.Add(sg)
				shadow[sg] = true
			} else {
				s = s.Del(sg)
				delete(shadow, sg)
			}
		}
		for sg := Signal(1); sg <= MaxSignal; sg++ {
			if s.Has(sg) != shadow[sg] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
