package addrspace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/errno"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// The differential test of the fault path. Two machines are built by
// the same op script: one runs Touch and Translate, the other the
// per-page loops they replaced, copied below as the oracle (with the
// wrap fix: a wrapping Touch is run as an overlong one). After every op
// the two must agree on the returned error, the fault injector's op log
// (point, sequence number, virtual time and magnitude of every op), the
// clocks and the eight meter counters, RSS, commit, allocated pages and
// every mapping of every live space and template, and, after a Touch or
// Translate, on the TLB, read back as the clock delta of a Lookup on
// every page of the range and the 64 after it.

// oracleTouch is Touch as a loop of single-page translations.
func oracleTouch(s *Space, va, length uint64, access Access) error {
	end := va + length
	for va < end {
		v := s.FindVMA(va)
		if v == nil {
			return errno.EFAULT
		}
		if _, _, err := oracleTranslate(s, va, access); err != nil {
			return err
		}
		va = alignDn(va, v.pageSize()) + v.pageSize()
	}
	return nil
}

// oracleTranslate is Translate as a loop of a lookup and a fault,
// retried until the lookup serves the access.
func oracleTranslate(s *Space, va uint64, access Access) (mem.FrameID, int, error) {
	if va >= pagetable.MaxVA {
		return mem.NoFrame, 0, errno.EFAULT
	}
	for tries := 0; tries < 3; tries++ {
		pte, ok := s.pt.Lookup(va &^ (mem.PageSize - 1))
		if ok && (access != AccessWrite || pte.Writable()) {
			f := pte.Frame()
			return f, int(va & uint64(f.Size()-1)), nil
		}
		if err := oracleFault(s, va, access); err != nil {
			return mem.NoFrame, 0, err
		}
	}
	panic(fmt.Sprintf("oracle: translate %#x did not converge", va))
}

// oracleFault is the page-fault handler with its own lookup and map.
func oracleFault(s *Space, va uint64, access Access) error {
	v := s.FindVMA(va)
	if v == nil {
		return errno.EFAULT
	}
	switch access {
	case AccessWrite:
		if v.Prot&Write == 0 {
			return errno.EFAULT
		}
	case AccessExec:
		if v.Prot&Exec == 0 {
			return errno.EFAULT
		}
	default:
		if v.Prot&Read == 0 {
			return errno.EFAULT
		}
	}
	s.meter.Charge(s.meter.Model.PageFault)
	s.meter.PageFaults++
	base := alignDn(va, v.pageSize())
	pte, present := s.pt.Lookup(base)
	if !present {
		return oracleDemandFault(s, v, base, access)
	}
	if access == AccessWrite && !pte.Writable() {
		return s.cowBreak(v, base, pte)
	}
	return nil
}

func oracleDemandFault(s *Space, v *VMA, base uint64, access Access) error {
	var f mem.FrameID
	var err error
	if v.Huge {
		f, err = s.phys.AllocHugeZero()
	} else {
		f, err = s.phys.AllocZero()
	}
	if err != nil {
		return err
	}
	if v.Backing != nil {
		sz := int(v.pageSize())
		s.phys.Adopt(f, v.Backing.Window(v.BackingOff+(base-v.Start), sz))
		s.meter.Charge(cost.Ticks(sz/mem.PageSize) * s.meter.Model.ImagePageIn)
	}
	flags := pteFlags(v.Prot)
	if access == AccessWrite {
		flags |= pagetable.FlagDirty
	}
	if v.Shared {
		flags |= pagetable.FlagShared
	}
	if v.Huge {
		s.pt.MapHuge(base, pagetable.Make(f, flags))
	} else {
		s.pt.Map(base, pagetable.Make(f, flags))
	}
	s.rssPages += f.Pages()
	return nil
}

// recordSched logs every injector op and fails the one whose point and
// sequence number it is armed with.
type recordSched struct {
	log       []fault.Op
	failPoint fault.Point
	failSeq   uint64 // 0: fail nothing
}

func (r *recordSched) Decide(op fault.Op) errno.Errno {
	r.log = append(r.log, op)
	if r.failSeq != 0 && op.Point == r.failPoint && op.Seq == r.failSeq {
		return errno.ENOMEM
	}
	return errno.OK
}

// Script geometry: base-page VMAs in a 16 MiB arena, huge ones in a
// 16 MiB arena of their own right after it, on a 32 MiB machine, so a
// script can run out of frames. A base-page op near the top of its
// arena runs up to 3 MiB into the huge one, so an Unmap or Protect can
// cut a huge VMA off its 2 MiB boundary after passing base-page VMAs.
const (
	touchArena = uint64(0x4000_0000)
	arenaPages = 4096
	hugeArena  = touchArena + arenaPages*mem.PageSize
	touchRAM   = 32 << 20
	maxSpaces  = 3 // a space and two forks
)

// touchBacking is the file every file-backed VMA of a script maps: a
// few pages of non-zero bytes, then a short last page, so a page-in
// adopts a full, a short or an empty window.
var touchBacking = func() sliceBacking {
	b := make(sliceBacking, 5*mem.PageSize+100)
	for i := range b {
		b[i] = byte(i%251) + 1
	}
	return b
}()

type touchOpKind uint8

const (
	opMap touchOpKind = iota
	opUnmap
	opProtect
	opTouch
	opTranslate
	opFork
	opDrop
	opSnapshot
	opResident
	opInject
	numTouchOps
)

// touchOp is one step of a script, applied to the live space target
// (modulo how many are live).
type touchOp struct {
	kind   touchOpKind
	target int
	va     uint64
	length uint64
	prot   Prot
	opts   MapOpts
	access Access
	point  fault.Point // opInject: the point to fail, its k-th op from now
	k      uint64
}

func (o touchOp) String() string {
	return fmt.Sprintf("{kind %d space %d va %#x len %#x prot %v huge %v shared %v backed %v access %v inject %v+%d}",
		o.kind, o.target, o.va, o.length, o.prot, o.opts.Huge, o.opts.Shared, o.opts.Backing != nil, o.access, o.point, o.k)
}

// touchMachine is one side of the differential: a machine, its live
// spaces and the last template snapshot of one of them.
type touchMachine struct {
	meter  *cost.Meter
	phys   *mem.Physical
	inj    *fault.Injector
	sched  *recordSched
	spaces []*Space
	oracle bool

	tmpl      *Space
	tmplPages []mapping

	// frame and off are the last Translate's result.
	frame mem.FrameID
	off   int
}

func newTouchMachine(oracle bool) *touchMachine {
	meter := cost.NewMeterSMP(cost.DefaultModel(), 2)
	phys := mem.NewPhysical(meter, touchRAM, mem.CommitHeuristic)
	sched := &recordSched{}
	inj := fault.NewInjector(meter, sched)
	phys.SetInjector(inj)
	return &touchMachine{
		meter: meter, phys: phys, inj: inj, sched: sched,
		spaces: []*Space{New(phys, meter)},
		oracle: oracle,
	}
}

// apply runs op and returns its error.
func (m *touchMachine) apply(op touchOp) error {
	i := op.target % len(m.spaces)
	s := m.spaces[i]
	switch op.kind {
	case opMap:
		_, err := s.Map(op.va, op.length, op.prot, op.opts)
		return err
	case opUnmap:
		return s.Unmap(op.va, op.length)
	case opProtect:
		return s.Protect(op.va, op.length, op.prot)
	case opTouch:
		if !m.oracle {
			return s.Touch(op.va, op.length, op.access)
		}
		n := op.length
		if op.va+n < op.va {
			n = 1 << 62 // the wrap fix: as overlong, and no VMA reaches 2^48
		}
		return oracleTouch(s, op.va, n, op.access)
	case opTranslate:
		var err error
		if m.oracle {
			m.frame, m.off, err = oracleTranslate(s, op.va, op.access)
		} else {
			m.frame, m.off, err = s.Translate(op.va, op.access)
		}
		return err
	case opFork:
		if len(m.spaces) == maxSpaces {
			return nil
		}
		c, err := s.CloneCOW()
		if err == nil {
			m.spaces = append(m.spaces, c)
		}
		return err
	case opDrop:
		if len(m.spaces) > 1 {
			s.Destroy()
			m.spaces = slices.Delete(m.spaces, i, i+1)
		}
	case opSnapshot:
		// A machine snapshot privatizes every table's fork-shared
		// leaves first, as kernel.Kernel.CloneInto does.
		for _, sp := range m.spaces {
			sp.pt.PrivatizeAll()
		}
		meter := cost.NewMeter(cost.DefaultModel())
		m.tmpl = s.CloneHost(m.phys.CloneHost(meter), meter, true, nil)
		m.tmplPages = mappings(m.tmpl)
	case opResident:
		if op.k%2 == 0 {
			s.MarkResident(1)
		} else {
			s.ClearResident(1)
		}
	case opInject:
		m.sched.failPoint, m.sched.failSeq = op.point, m.inj.Count(op.point)+op.k
	}
	return nil
}

// mapping is one present entry of a space.
type mapping struct {
	va uint64
	e  pagetable.PTE
}

// mappings reads every present entry of s in ascending va order. Visit
// with an unchanged entry charges nothing; it only drops the table's
// leaf cache.
func mappings(s *Space) []mapping {
	var out []mapping
	s.pt.Visit(func(va uint64, e pagetable.PTE) pagetable.PTE {
		out = append(out, mapping{va, e})
		return e
	})
	return out
}

// compareTouch holds the two machines to each other after an op that
// returned ea on one and eb on the other.
func compareTouch(t testing.TB, tag string, a, b *touchMachine, ea, eb error) {
	t.Helper()
	if ea != eb {
		t.Fatalf("%s: error %v, oracle %v", tag, ea, eb)
	}
	if a.frame != b.frame || a.off != b.off {
		t.Fatalf("%s: translated to frame %d+%d, oracle %d+%d", tag, a.frame, a.off, b.frame, b.off)
	}
	if !slices.Equal(a.sched.log, b.sched.log) {
		n := min(len(a.sched.log), len(b.sched.log))
		for i := range n {
			if a.sched.log[i] != b.sched.log[i] {
				t.Fatalf("%s: injector op %d is %+v, oracle %+v", tag, i, a.sched.log[i], b.sched.log[i])
			}
		}
		t.Fatalf("%s: %d injector ops, oracle %d", tag, len(a.sched.log), len(b.sched.log))
	}
	ma, mb := a.meter, b.meter
	for c := range ma.NumCPUs() {
		if ma.CPUClock(c) != mb.CPUClock(c) {
			t.Fatalf("%s: CPU %d clock %d, oracle %d", tag, c, ma.CPUClock(c), mb.CPUClock(c))
		}
	}
	ca := [8]uint64{ma.PTECopies, ma.PTNodes, ma.PageCopies, ma.PageZeroes, ma.PageFaults, ma.Syscalls, ma.Instructions, ma.TLBShootdowns}
	cb := [8]uint64{mb.PTECopies, mb.PTNodes, mb.PageCopies, mb.PageZeroes, mb.PageFaults, mb.Syscalls, mb.Instructions, mb.TLBShootdowns}
	if ca != cb {
		t.Fatalf("%s: meter counters %v, oracle %v", tag, ca, cb)
	}
	if a.phys.AllocatedPages() != b.phys.AllocatedPages() || a.phys.Committed() != b.phys.Committed() {
		t.Fatalf("%s: %d pages allocated, %d committed; oracle %d, %d", tag,
			a.phys.AllocatedPages(), a.phys.Committed(), b.phys.AllocatedPages(), b.phys.Committed())
	}
	if len(a.spaces) != len(b.spaces) {
		t.Fatalf("%s: %d live spaces, oracle %d", tag, len(a.spaces), len(b.spaces))
	}
	for i := range a.spaces {
		sa, sb := a.spaces[i], b.spaces[i]
		if sa.RSS() != sb.RSS() || sa.Committed() != sb.Committed() {
			t.Fatalf("%s: space %d RSS %d commit %d, oracle %d %d", tag, i, sa.RSS(), sa.Committed(), sb.RSS(), sb.Committed())
		}
		if sa.pt.Entries() != sb.pt.Entries() || sa.pt.Nodes() != sb.pt.Nodes() {
			t.Fatalf("%s: space %d has %d entries in %d nodes, oracle %d in %d", tag, i,
				sa.pt.Entries(), sa.pt.Nodes(), sb.pt.Entries(), sb.pt.Nodes())
		}
		compareMappings(t, fmt.Sprintf("%s: space %d", tag, i), mappings(sa), mappings(sb))
	}
	if (a.tmpl == nil) != (b.tmpl == nil) {
		t.Fatalf("%s: template on one side only", tag)
	}
	if a.tmpl != nil {
		compareMappings(t, tag+": template", mappings(a.tmpl), a.tmplPages)
		compareMappings(t, tag+": oracle template", mappings(b.tmpl), b.tmplPages)
		compareMappings(t, tag+": template", a.tmplPages, b.tmplPages)
	}
}

func compareMappings(t testing.TB, tag string, got, want []mapping) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d maps %#x to %v, want %#x to %v", tag, i, got[i].va, got[i].e, want[i].va, want[i].e)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", tag, len(got), len(want))
	}
}

// compareTLB looks up every page of op's range, capped at 2,048 pages,
// and the 64 after it, on both machines, and compares what each lookup
// returns and charges: a TLB hit charges nothing.
func compareTLB(t testing.TB, tag string, op touchOp, a, b *touchMachine) {
	t.Helper()
	end := op.va + op.length
	if op.kind == opTranslate {
		end = op.va + 1
	}
	if end < op.va || end > pagetable.MaxVA {
		end = pagetable.MaxVA
	}
	start := alignDn(op.va, mem.PageSize)
	end = min(end, start+2048*mem.PageSize)
	end = min(align(end, mem.PageSize)+64*mem.PageSize, pagetable.MaxVA)
	sa, sb := a.spaces[op.target%len(a.spaces)], b.spaces[op.target%len(b.spaces)]
	for p := start; p < end; p += mem.PageSize {
		t0, u0 := a.meter.Now(), b.meter.Now()
		ea, oka := sa.pt.Lookup(p)
		eb, okb := sb.pt.Lookup(p)
		da, db := a.meter.Now()-t0, b.meter.Now()-u0
		if ea != eb || oka != okb || da != db {
			t.Fatalf("%s: Lookup(%#x) = %v, %v charging %d; oracle %v, %v charging %d", tag, p, ea, oka, da, eb, okb, db)
		}
	}
}

// checkCommit holds every live space's commit to the VMAs it lists:
// Committed is exactly the pages of its private writable VMAs. Both
// sides of the differential run the same Unmap and Protect, so only
// this check sees one that moves commit without moving its VMAs.
func checkCommit(t testing.TB, tag string, m *touchMachine) {
	t.Helper()
	for i, s := range m.spaces {
		var want uint64
		for _, v := range s.VMAs() {
			if v.reserved() {
				want += v.Len()
			}
		}
		if s.Committed() != want {
			t.Fatalf("%s: oracle=%v space %d commits %d bytes, its private writable VMAs %d:\n%s",
				tag, m.oracle, i, s.Committed(), want, s.Dump())
		}
	}
}

// runTouchScript applies ops to a machine running Touch and Translate
// and one running the oracle, comparing them after every op, then
// destroys every space and checks that no frame is left allocated.
func runTouchScript(t testing.TB, ops []touchOp) {
	a, b := newTouchMachine(false), newTouchMachine(true)
	for i, op := range ops {
		ea, eb := a.apply(op), b.apply(op)
		tag := fmt.Sprintf("op %d %v", i, op)
		compareTouch(t, tag, a, b, ea, eb)
		checkCommit(t, tag, a)
		checkCommit(t, tag, b)
		if op.kind == opTouch || op.kind == opTranslate {
			compareTLB(t, tag, op, a, b)
		}
	}
	for _, m := range []*touchMachine{a, b} {
		for _, s := range m.spaces {
			s.Destroy()
		}
		if n := m.phys.AllocatedPages(); n != 0 {
			t.Fatalf("oracle=%v: %d pages still allocated after every space is destroyed", m.oracle, n)
		}
	}
}

// decodeTouchOps turns bytes into a script, 8 bytes an op: the op kind
// and target space, two address bytes, two length bytes, a flag byte
// and two more for offsets and counts.
func decodeTouchOps(data []byte) []touchOp {
	var ops []touchOp
	for ; len(data) >= 8; data = data[8:] {
		d := data[:8]
		sel := uint64(d[1]) | uint64(d[2])<<8
		n := uint64(d[3]) | uint64(d[4])<<8
		flags := d[5]
		op := touchOp{
			kind:   touchOpKind(d[0] % byte(numTouchOps)),
			target: int(d[0] / byte(numTouchOps)),
			prot:   Prot(flags%8) | Read*Prot(flags>>7),
			access: Access(flags>>3) % 3,
			k:      uint64(d[6] % 16),
			point:  []fault.Point{fault.PointFrameAlloc, fault.PointCOWBreak}[d[7]%2],
		}
		huge := flags&0x40 != 0
		if huge {
			op.va = hugeArena + sel%8*mem.HugeSize
			op.length = (1 + n%2) * mem.HugeSize
			op.opts.Huge = true
		} else {
			op.va = touchArena + sel%arenaPages*mem.PageSize
			op.length = (1 + n%768) * mem.PageSize
		}
		switch op.kind {
		case opMap:
			op.opts.Shared = flags&0x20 != 0 && !huge
			if d[7]&4 != 0 && !huge {
				op.opts.Backing = touchBacking
				op.opts.BackingOff = uint64(d[6]%4) * mem.PageSize
			}
		case opTouch, opTranslate:
			// Unaligned starts and ends, and ranges past 2^48 or
			// wrapping past 2^64.
			op.va += uint64(d[6]) * 16 % mem.PageSize
			op.length += uint64(d[7]) * 16
			switch d[7] % 16 {
			case 3:
				op.length = ^uint64(0) - uint64(d[6])
			case 5:
				op.length = 1 << 62
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// Script builders for the hand-written cases.
func mapOp(target int, va, length uint64, prot Prot, opts MapOpts) touchOp {
	return touchOp{kind: opMap, target: target, va: va, length: length, prot: prot, opts: opts}
}

func touchOpAt(target int, va, length uint64, access Access) touchOp {
	return touchOp{kind: opTouch, target: target, va: va, length: length, access: access}
}

func translateOp(target int, va uint64, access Access) touchOp {
	return touchOp{kind: opTranslate, target: target, va: va, access: access}
}

func TestTouchMatchesPerPage(t *testing.T) {
	const (
		page = mem.PageSize
		leaf = mem.HugeSize
	)
	rw, anon := Read|Write, MapOpts{}
	// A VMA that crosses a 2 MiB leaf boundary: 40 pages below it,
	// 60 above.
	cross := touchArena + leaf - 40*page
	crossed := mapOp(0, cross, 100*page, rw, anon)
	huge := MapOpts{Huge: true}
	scripts := map[string][]touchOp{
		"anonymous, unaligned, across a leaf boundary": {
			crossed,
			touchOpAt(0, cross+100, 70*page-300, AccessWrite),
			touchOpAt(0, cross, 100*page, AccessRead),
			touchOpAt(0, cross, 100*page, AccessWrite),
		},
		"read-only, write-only and exec VMAs": {
			mapOp(0, touchArena, 8*page, Read, anon),
			mapOp(0, touchArena+8*page, 8*page, Write, anon),
			mapOp(0, touchArena+16*page, 8*page, Read|Exec, anon),
			touchOpAt(0, touchArena, 4*page, AccessWrite),
			touchOpAt(0, touchArena, 4*page, AccessRead),
			touchOpAt(0, touchArena, 8*page, AccessWrite),
			touchOpAt(0, touchArena+8*page, 8*page, AccessRead),
			touchOpAt(0, touchArena+8*page, 4*page, AccessWrite),
			touchOpAt(0, touchArena+8*page, 8*page, AccessRead),
			touchOpAt(0, touchArena+16*page, 8*page, AccessExec),
			translateOp(0, touchArena+20*page, AccessExec),
			translateOp(0, touchArena+21*page, AccessWrite),
		},
		"shared VMA across a fork": {
			mapOp(0, touchArena, 16*page, rw, MapOpts{Shared: true}),
			touchOpAt(0, touchArena, 8*page, AccessWrite),
			{kind: opFork},
			touchOpAt(1, touchArena, 16*page, AccessWrite),
			touchOpAt(0, touchArena, 16*page, AccessWrite),
		},
		"huge VMA": {
			mapOp(0, hugeArena, 2*leaf, rw, huge),
			touchOpAt(0, hugeArena+5*page+7, leaf, AccessRead),
			touchOpAt(0, hugeArena, 2*leaf, AccessWrite),
			{kind: opFork},
			{kind: opResident, target: 0},
			touchOpAt(0, hugeArena+leaf+3, 10, AccessWrite),
			translateOp(1, hugeArena+7*page, AccessWrite),
			translateOp(1, hugeArena+7*page, AccessWrite),
		},
		"file-backed VMA": {
			mapOp(0, touchArena, 8*page, Read|Exec, MapOpts{Backing: touchBacking, BackingOff: page}),
			mapOp(0, touchArena+8*page, 8*page, rw, MapOpts{Backing: touchBacking}),
			touchOpAt(0, touchArena+page, 7*page, AccessRead),
			translateOp(0, touchArena, AccessExec),
			touchOpAt(0, touchArena+8*page, 8*page, AccessWrite),
		},
		"gaps between VMAs": {
			mapOp(0, touchArena, 4*page, rw, anon),
			mapOp(0, touchArena+6*page, 4*page, rw, anon),
			touchOpAt(0, touchArena+page, 8*page, AccessWrite),
			touchOpAt(0, touchArena+6*page, 4*page, AccessWrite),
			touchOpAt(0, touchArena-page, 2*page, AccessRead),
			translateOp(0, touchArena+5*page, AccessRead),
		},
		"COW after a fork, then sole owner": {
			crossed,
			touchOpAt(0, cross, 100*page, AccessWrite),
			{kind: opFork},
			{kind: opResident, target: 0},
			touchOpAt(0, cross+10*page, 50*page, AccessWrite),
			touchOpAt(1, cross, 30*page, AccessWrite),
			{kind: opDrop, target: 1},
			touchOpAt(0, cross, 100*page, AccessWrite),
		},
		"absent pages in fork-shared leaves": {
			crossed,
			touchOpAt(0, cross+30*page, 20*page, AccessWrite),
			{kind: opFork},
			{kind: opFork, target: 1},
			touchOpAt(0, cross, 100*page, AccessWrite),
			touchOpAt(1, cross, 100*page, AccessRead),
			touchOpAt(2, cross+20*page, 50*page, AccessWrite),
		},
		"absent pages in template-shared leaves": {
			crossed,
			touchOpAt(0, cross+30*page, 20*page, AccessWrite),
			{kind: opFork},
			{kind: opSnapshot},
			touchOpAt(0, cross, 100*page, AccessWrite),
			touchOpAt(1, cross, 100*page, AccessWrite),
			{kind: opSnapshot, target: 1},
			{kind: opUnmap, va: cross + 60*page, length: 10 * page},
			touchOpAt(1, cross, 100*page, AccessRead),
		},
		"injected frame-allocation failure": {
			crossed,
			{kind: opInject, point: fault.PointFrameAlloc, k: 5},
			touchOpAt(0, cross, 100*page, AccessWrite),
			touchOpAt(0, cross, 100*page, AccessWrite),
			{kind: opInject, point: fault.PointFrameAlloc, k: 1},
			translateOp(0, cross+99*page, AccessRead),
		},
		"injected COW-break failure": {
			crossed,
			touchOpAt(0, cross, 100*page, AccessWrite),
			{kind: opFork},
			{kind: opInject, point: fault.PointCOWBreak, k: 3},
			touchOpAt(0, cross, 100*page, AccessWrite),
			touchOpAt(0, cross, 100*page, AccessWrite),
		},
		"out of frames": {
			mapOp(0, hugeArena+8*leaf, 20<<20, rw, anon),
			mapOp(0, hugeArena, 8*leaf, rw, huge),
			touchOpAt(0, hugeArena, 8*leaf, AccessWrite),
			touchOpAt(0, hugeArena+8*leaf, 20<<20, AccessWrite),
		},
		"base-page cuts into a huge VMA": {
			mapOp(0, hugeArena-64*page, 64*page, rw, anon),
			mapOp(0, hugeArena, 2*leaf, rw, huge),
			touchOpAt(0, hugeArena-64*page, 64*page+leaf, AccessWrite),
			{kind: opProtect, va: hugeArena - 64*page, length: 64*page + leaf/2, prot: Read},
			{kind: opUnmap, va: hugeArena - 32*page, length: 32*page + 3*leaf/2},
			touchOpAt(0, hugeArena-64*page, 64*page, AccessWrite),
			{kind: opProtect, va: hugeArena - 64*page, length: 64*page + leaf, prot: Read},
			{kind: opUnmap, va: hugeArena - 32*page, length: 32*page + 2*leaf},
		},
		"protection changes": {
			mapOp(0, touchArena, 16*page, rw, anon),
			touchOpAt(0, touchArena, 8*page, AccessWrite),
			{kind: opProtect, va: touchArena, length: 16 * page, prot: Read},
			touchOpAt(0, touchArena, 16*page, AccessRead),
			{kind: opFork},
			{kind: opProtect, va: touchArena, length: 16 * page, prot: rw},
			touchOpAt(0, touchArena, 16*page, AccessWrite),
			{kind: opDrop, target: 1},
			touchOpAt(0, touchArena, 16*page, AccessWrite),
		},
		"wrapping and overlong ranges": {
			mapOp(0, touchArena, 256*page, rw, anon),
			touchOpAt(0, touchArena, ^uint64(0), AccessWrite),
			touchOpAt(0, touchArena+page, ^uint64(0)-page, AccessWrite),
			touchOpAt(0, touchArena, 1<<62, AccessRead),
			touchOpAt(0, pagetable.MaxVA, page, AccessRead),
			touchOpAt(0, pagetable.MaxVA+page, ^uint64(0), AccessRead),
			translateOp(0, pagetable.MaxVA, AccessRead),
		},
	}
	for name, ops := range scripts {
		t.Run(name, func(t *testing.T) { runTouchScript(t, ops) })
	}
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 8*200)
		rng.Read(data)
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) { runTouchScript(t, decodeTouchOps(data)) })
	}
}

// TestTouchWrapIsOverlong pins the wrap fix directly: a range that
// wraps past 2^64 faults its VMA in and fails at the hole after it,
// exactly as an overlong one does.
func TestTouchWrapIsOverlong(t *testing.T) {
	for _, length := range []uint64{^uint64(0), 1 << 62} {
		s, _ := newSpace(64, mem.CommitHeuristic)
		v, err := s.Map(0, 1<<20, Read|Write, MapOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Touch(v.Start, length, AccessWrite); err != errno.EFAULT {
			t.Errorf("Touch(start, %#x) = %v, want EFAULT", length, err)
		}
		if s.RSS() != 1<<20 {
			t.Errorf("Touch(start, %#x) left RSS %d, want the whole 1 MiB VMA", length, s.RSS())
		}
	}
}

// FuzzTouch lets the fuzzer hunt for scripts on which the fault path
// and the per-page oracle disagree; the corpus replays as ordinary
// tests.
func FuzzTouch(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 3, 0, 0, 3, 0, 0, 1, 0, 8, 0, 0})
	rng := rand.New(rand.NewSource(7))
	seed := make([]byte, 8*64)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*400 {
			data = data[:8*400]
		}
		runTouchScript(t, decodeTouchOps(data))
	})
}
