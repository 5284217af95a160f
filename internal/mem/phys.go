// Package mem implements the simulated machine's physical memory: a
// frame allocator with per-frame reference counts (for copy-on-write
// sharing), lazily materialised frame contents, huge (2 MiB) frames,
// and commit accounting with selectable overcommit policies.
//
// Base frames are 4 KiB. A frame whose contents have never been
// written holds no backing []byte at all and reads as zeroes; this
// lets the simulator model multi-gigabyte address spaces without
// allocating gigabytes of host memory, while still charging the
// virtual-time cost of zeroing and copying. A materialised frame's
// bytes sit in a slot of one slice, which the frame names by index, so
// no frame operation hashes. Those bytes may be host-shared rather
// than owned: a template or clone machine's (see CloneHost), or a file
// page adopted without a copy (see Adopt); either is copied out before
// the first in-place write. An owned 4 KiB buffer is recycled when its
// frame is freed or zeroed: it goes to a pool that every machine of
// the process takes its next base-page buffers from (see pagePool).
package mem

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/cost"
	"repro/internal/errno"
	"repro/internal/fault"
)

// Page geometry. These mirror x86-64 4 KiB base pages and 2 MiB huge
// pages.
const (
	PageShift     = 12
	PageSize      = 1 << PageShift // 4096
	HugeShift     = 21
	HugeSize      = 1 << HugeShift // 2 MiB
	FramesPerHuge = HugeSize / PageSize
)

// FrameID names a physical frame. Huge frames live in a separate
// namespace distinguished by the top bit. NoFrame is the invalid
// sentinel.
type FrameID uint32

// NoFrame is an invalid frame id.
const NoFrame FrameID = ^FrameID(0)

const hugeBit FrameID = 1 << 31

// IsHuge reports whether f names a 2 MiB frame.
func (f FrameID) IsHuge() bool { return f != NoFrame && f&hugeBit != 0 }

// Size reports the frame's size in bytes.
func (f FrameID) Size() int {
	if f.IsHuge() {
		return HugeSize
	}
	return PageSize
}

// Pages reports the frame's size in 4 KiB pages.
func (f FrameID) Pages() uint64 {
	if f.IsHuge() {
		return FramesPerHuge
	}
	return 1
}

// frame is one frame's allocator state. Deliberately pointer-free (8
// bytes): machine cloning copies the whole table with one memmove, and
// the garbage collector never scans it. next has one meaning per
// state: while the frame is free it is the intrusive free-list link (a
// FrameID); while it is live it is the index of the frame's contents
// in Physical.data, 0 for a lazy zero frame — most frames are lazy
// zeroes and have no slot.
type frame struct {
	refs int32
	next uint32
}

// frameData is one materialised frame's contents. bytes is at most a
// frame long and reads as zero past its end; only shared bytes are
// ever shorter. shared marks bytes the frame does not own — aliased
// with a template or clone machine (see CloneHost) or adopted from a
// file (see Adopt) — which are copied out before the first in-place
// write and never recycled. Owned bytes are exactly a frame long, and
// a base frame's go back to pagePool when the slot is emptied. Purely
// host-side: it never affects refcounts, commit, or any metered cost.
// A free slot is the zero value.
type frameData struct {
	bytes  []byte
	shared bool
}

// CommitPolicy selects how commit (reservation) accounting behaves.
// It models /proc/sys/vm/overcommit_memory.
type CommitPolicy int

const (
	// CommitHeuristic allows reservations freely unless a single
	// request is larger than RAM; processes discover memory
	// exhaustion later, at fault time (the OOM-killer regime the
	// paper blames fork for normalising).
	CommitHeuristic CommitPolicy = iota
	// CommitStrict refuses any reservation that would push total
	// committed pages past the commit limit, which is RAM. Under
	// this policy forking a large process fails up front with
	// ENOMEM.
	CommitStrict
	// CommitAlways never refuses a reservation (overcommit_memory=1).
	CommitAlways
)

func (p CommitPolicy) String() string {
	switch p {
	case CommitHeuristic:
		return "heuristic"
	case CommitStrict:
		return "strict"
	case CommitAlways:
		return "always"
	}
	return fmt.Sprintf("CommitPolicy(%d)", int(p))
}

// Physical is the machine's physical memory.
type Physical struct {
	meter *cost.Meter

	// Base (4 KiB) frames. The allocator is O(1) in both time and
	// setup: never-allocated frames are handed out in ascending id
	// order from a bump watermark, and freed frames go on an
	// intrusive LIFO list threaded through the frame structs — no
	// per-frame free stack is ever built, and the frame table grows
	// lazily, so booting a multi-GiB machine costs nothing up front.
	frames   []frame
	nextFree uint64  // bump watermark: ids below this have been handed out
	freeHead FrameID // head of the intrusive free list (NoFrame = empty)

	// data holds materialised frame contents, base and huge alike,
	// one slot per frame that has any: a live frame's next field
	// indexes it, and slot 0 stays empty because next == 0 means a
	// lazy zero frame. A slot is emptied and pushed on freeSlots when
	// its frame is freed or zeroed, so every non-empty slot belongs
	// to exactly one live frame.
	data      []frameData
	freeSlots []uint32 // LIFO stack of empty slots to reuse

	hframes []frame   // huge (2 MiB) frames, grown on demand
	hfree   []FrameID // LIFO free stack of huge frames (few; a slice is fine)

	totalPages     uint64 // RAM size in 4 KiB pages, and the commit limit
	allocatedPages uint64 // pages currently handed out (huge counts 512)

	policy    CommitPolicy
	committed uint64 // pages currently reserved

	// inj, when set, is the machine's fault injector: frame
	// allocations and commit reservations become schedulable failure
	// points (nil = never inject; the Fail calls are nil-safe).
	inj *fault.Injector
}

// NewPhysical creates physical memory of ramBytes under the given
// commit policy, whose limit is the RAM itself. The size is rounded
// down to whole pages. The meter is charged for every hardware
// operation.
func NewPhysical(meter *cost.Meter, ramBytes uint64, policy CommitPolicy) *Physical {
	return &Physical{
		meter:      meter,
		freeHead:   NoFrame,
		data:       make([]frameData, 1),
		totalPages: ramBytes >> PageShift,
		policy:     policy,
	}
}

// TotalPages reports the RAM size in 4 KiB pages.
func (p *Physical) TotalPages() uint64 { return p.totalPages }

// FreePages reports how many 4 KiB pages remain unallocated.
func (p *Physical) FreePages() uint64 { return p.totalPages - p.allocatedPages }

// AllocatedPages reports how many 4 KiB pages are handed out (a huge
// frame accounts for 512).
func (p *Physical) AllocatedPages() uint64 { return p.allocatedPages }

// Committed reports the pages currently reserved.
func (p *Physical) Committed() uint64 { return p.committed }

// Policy reports the commit policy in force.
func (p *Physical) Policy() CommitPolicy { return p.policy }

// SetInjector installs the machine's fault injector (kernel boot).
func (p *Physical) SetInjector(i *fault.Injector) { p.inj = i }

// Injector returns the machine's fault injector (nil when fault
// injection is off; the address-space layer consults its own points
// through here).
func (p *Physical) Injector() *fault.Injector { return p.inj }

// Reserve requests commit for n pages of private writable memory.
// Under CommitStrict it fails with ENOMEM when the commit limit would
// be exceeded; under CommitHeuristic it fails only for single requests
// larger than the limit; CommitAlways never fails.
func (p *Physical) Reserve(n uint64) error {
	if e := p.inj.Fail(fault.PointCommit, n); e != errno.OK {
		return e
	}
	switch p.policy {
	case CommitStrict:
		if p.committed+n > p.totalPages {
			return errno.ENOMEM
		}
	case CommitHeuristic:
		if n > p.totalPages {
			return errno.ENOMEM
		}
	case CommitAlways:
	}
	p.committed += n
	return nil
}

// Unreserve returns commit for n pages.
func (p *Physical) Unreserve(n uint64) {
	if n > p.committed {
		panic(fmt.Sprintf("mem: unreserve %d with only %d committed", n, p.committed))
	}
	p.committed -= n
}

func (p *Physical) slot(f FrameID) *frame {
	if f == NoFrame {
		panic("mem: NoFrame")
	}
	if f.IsHuge() {
		i := f &^ hugeBit
		if uint64(i) >= uint64(len(p.hframes)) {
			panic(fmt.Sprintf("mem: bad huge frame %d", i))
		}
		return &p.hframes[i]
	}
	if uint64(f) >= uint64(len(p.frames)) {
		panic(fmt.Sprintf("mem: bad frame %d", f))
	}
	return &p.frames[f]
}

func (p *Physical) live(f FrameID) *frame {
	fr := p.slot(f)
	if fr.refs <= 0 {
		panic(fmt.Sprintf("mem: use of free frame %d", f))
	}
	return fr
}

// Alloc hands out one 4 KiB frame with refcount 1 and logically zero
// contents. It fails with ENOMEM when RAM is exhausted — the simulated
// OOM condition. Recently freed frames are reused first (LIFO, cache-
// warm); otherwise the next never-touched frame is taken in ascending
// id order, growing the frame table on demand.
func (p *Physical) Alloc() (FrameID, error) {
	if e := p.inj.Fail(fault.PointFrameAlloc, 1); e != errno.OK {
		return NoFrame, e
	}
	if p.allocatedPages+1 > p.totalPages {
		return NoFrame, errno.ENOMEM
	}
	var f FrameID
	if p.freeHead != NoFrame {
		f = p.freeHead
		p.freeHead = FrameID(p.frames[f].next)
	} else {
		if p.nextFree >= p.totalPages {
			return NoFrame, errno.ENOMEM
		}
		f = FrameID(p.nextFree)
		p.nextFree++
		if uint64(len(p.frames)) < p.nextFree {
			p.frames = append(p.frames, frame{})
		}
	}
	p.frames[f] = frame{refs: 1}
	p.allocatedPages++
	p.meter.Charge(p.meter.Model.FrameAlloc)
	return f, nil
}

// GrowFrames makes room in the frame table for n more base frames than
// the free list holds, up to RAM's size, so that many allocations ahead
// grow the table once instead of one append at a time, which allocates
// several times the table's final size. Host-only: it charges nothing
// and hands out no frame.
func (p *Physical) GrowFrames(n uint64) {
	live := p.allocatedPages - FramesPerHuge*uint64(len(p.hframes)-len(p.hfree))
	if free := p.nextFree - live; n > free {
		if need := min(p.nextFree+n-free, p.totalPages); need > uint64(cap(p.frames)) {
			frames := make([]frame, len(p.frames), need)
			copy(frames, p.frames)
			p.frames = frames
		}
	}
}

// AllocHuge hands out one 2 MiB frame with refcount 1. The 512-page
// budget is charged against the same RAM pool as base frames.
func (p *Physical) AllocHuge() (FrameID, error) {
	if e := p.inj.Fail(fault.PointFrameAlloc, FramesPerHuge); e != errno.OK {
		return NoFrame, e
	}
	if p.allocatedPages+FramesPerHuge > p.totalPages {
		return NoFrame, errno.ENOMEM
	}
	var f FrameID
	if n := len(p.hfree); n > 0 {
		f = p.hfree[n-1]
		p.hfree = p.hfree[:n-1]
	} else {
		p.hframes = append(p.hframes, frame{})
		f = FrameID(len(p.hframes)-1) | hugeBit
	}
	*p.slot(f) = frame{refs: 1}
	p.allocatedPages += FramesPerHuge
	p.meter.Charge(p.meter.Model.FrameAlloc)
	return f, nil
}

// AllocZero allocates a 4 KiB frame and charges the zero-fill cost.
// (Contents are lazily zero anyway; the charge models the hardware.)
func (p *Physical) AllocZero() (FrameID, error) {
	f, err := p.Alloc()
	if err != nil {
		return NoFrame, err
	}
	p.meter.Charge(p.meter.Model.PageZero)
	p.meter.PageZeroes++
	return f, nil
}

// AllocHugeZero allocates a 2 MiB frame and charges the 2 MiB
// zero-fill cost.
func (p *Physical) AllocHugeZero() (FrameID, error) {
	f, err := p.AllocHuge()
	if err != nil {
		return NoFrame, err
	}
	p.meter.Charge(p.meter.Model.HugeZero)
	p.meter.PageZeroes += FramesPerHuge
	return f, nil
}

// IncRef adds a reference to f (COW sharing on fork).
func (p *Physical) IncRef(f FrameID) {
	p.live(f).refs++
}

// DecRef drops a reference; when the count reaches zero the frame is
// freed and true is returned.
func (p *Physical) DecRef(f FrameID) bool {
	fr := p.live(f)
	fr.refs--
	if fr.refs > 0 {
		return false
	}
	p.dropData(fr)
	if f.IsHuge() {
		*fr = frame{}
		p.hfree = append(p.hfree, f)
		p.allocatedPages -= FramesPerHuge
	} else {
		*fr = frame{next: uint32(p.freeHead)}
		p.freeHead = f
		p.allocatedPages--
	}
	p.meter.Charge(p.meter.Model.FrameFree)
	return true
}

// IncRefs adds a reference to every frame in fs, exactly as a loop of
// IncRef would. A live base frame is bumped in line; every other id —
// a huge frame, a free or out-of-range one — goes through IncRef, so
// its panics are IncRef's. Page-table clones pass a leaf's frames at a
// time, which keeps fork's Θ(mapped pages) inner loop free of calls.
func (p *Physical) IncRefs(fs []FrameID) {
	frames := p.frames // IncRef never grows the table
	for _, f := range fs {
		if uint64(f) < uint64(len(frames)) && frames[f].refs > 0 {
			frames[f].refs++
			continue
		}
		p.IncRef(f)
	}
}

// DecRefs drops a reference from every frame in fs, exactly as a loop
// of DecRef would. A live base frame is handled in line: decremented
// while it stays referenced, and on its last reference freed as DecRef
// frees it — its data slot emptied if it has one, the frame pushed on
// the LIFO free list — in fs order, so the free list, the slot stack
// and with them every later Alloc id and data slot are unchanged. The
// in-line frees' books, allocatedPages and one FrameFree each, are
// applied in one step, exact because nothing reads the clock between
// them. Every other id — a huge frame, a free or out-of-range one —
// goes through DecRef once the frees before it are booked, so its
// panics are DecRef's and leave the books a loop would have left.
func (p *Physical) DecRefs(fs []FrameID) {
	frames := p.frames // DecRef never grows the table
	var freed uint64
	for _, f := range fs {
		var fr *frame
		if uint64(f) < uint64(len(frames)) {
			fr = &frames[f]
		}
		switch {
		case fr != nil && fr.refs > 1:
			fr.refs--
		case fr != nil && fr.refs == 1:
			if fr.next != 0 { // most frames are lazy zeroes, with no slot
				p.dropData(fr)
			}
			*fr = frame{next: uint32(p.freeHead)}
			p.freeHead = f
			freed++
		default:
			p.bookFrees(freed)
			freed = 0
			p.DecRef(f)
		}
	}
	p.bookFrees(freed)
}

// bookFrees applies the books of n base frames freed in line: the pages
// handed back and one FrameFree charge each.
func (p *Physical) bookFrees(n uint64) {
	p.allocatedPages -= n
	p.meter.Charge(cost.Ticks(n) * p.meter.Model.FrameFree)
}

// Refs reports the reference count of f.
func (p *Physical) Refs(f FrameID) int32 {
	return p.live(f).refs
}

// Read copies frame contents at off into buf. Unmaterialised frames,
// and the bytes past a short adopted window, read as zeroes.
func (p *Physical) Read(f FrameID, off int, buf []byte) {
	fr := p.live(f)
	if off < 0 || off+len(buf) > f.Size() {
		panic(fmt.Sprintf("mem: read off=%d len=%d beyond frame size %d", off, len(buf), f.Size()))
	}
	n := 0
	if b := p.data[fr.next].bytes; off < len(b) {
		n = copy(buf, b[off:])
	}
	clear(buf[n:])
}

// Write stores data into frame f at off, materialising the frame's
// backing store only if the write changes its contents (an all-zero
// write to a zero frame stays lazy).
func (p *Physical) Write(f FrameID, off int, data []byte) {
	fr := p.live(f)
	if off < 0 || off+len(data) > f.Size() {
		panic(fmt.Sprintf("mem: write off=%d len=%d beyond frame size %d", off, len(data), f.Size()))
	}
	if fr.next == 0 {
		if allZero(data) {
			return
		}
		b := ownedBuf(f)
		clear(b[:off])
		clear(b[off+len(data):])
		fr.next = p.newSlot()
		p.data[fr.next].bytes = b
	} else if fd := &p.data[fr.next]; fd.shared {
		// First write to bytes the frame does not own (a template's
		// or an adopted file page, possibly shorter than the frame):
		// break the host-side sharing by copying them out. Free —
		// the simulated machine already paid its COW break or page-in;
		// only the host representation was shared.
		b := ownedBuf(f)
		clear(b[copy(b, fd.bytes):])
		*fd = frameData{bytes: b}
	}
	copy(p.data[fr.next].bytes[off:], data)
}

// Adopt makes b the contents of frame f without copying it: b becomes
// the frame's bytes, reading as zero past its end, and is marked
// shared, so the frame never writes into it (the first Write copies it
// out) and whoever handed it over must not either. An empty or
// all-zero b leaves f a lazy zero frame, exactly as Write would. This
// is the demand-paging path: an executable's page goes from the file
// to the frame with no host copy. Host-only — nothing is charged.
func (p *Physical) Adopt(f FrameID, b []byte) {
	fr := p.live(f)
	if len(b) > f.Size() {
		panic(fmt.Sprintf("mem: adopt len=%d beyond frame size %d", len(b), f.Size()))
	}
	p.dropData(fr)
	if allZero(b) {
		return
	}
	fr.next = p.newSlot()
	p.data[fr.next] = frameData{bytes: b, shared: true}
}

// newSlot returns an empty data slot, reusing the most recently
// emptied one.
func (p *Physical) newSlot() uint32 {
	if n := len(p.freeSlots); n > 0 {
		s := p.freeSlots[n-1]
		p.freeSlots = p.freeSlots[:n-1]
		return s
	}
	p.data = append(p.data, frameData{})
	return uint32(len(p.data) - 1)
}

// dropData makes the live frame fr a lazy zero frame, emptying its
// slot (if any) for reuse and putting an owned 4 KiB buffer back in
// pagePool.
func (p *Physical) dropData(fr *frame) {
	if s := fr.next; s != 0 {
		if fd := p.data[s]; !fd.shared && len(fd.bytes) == PageSize {
			pagePool.Put((*[PageSize]byte)(fd.bytes))
		}
		p.data[s] = frameData{}
		p.freeSlots = append(p.freeSlots, s)
		fr.next = 0
	}
}

// pagePool recycles the owned 4 KiB buffers of freed and zeroed
// frames across every machine of the process, as pagetable's node
// pools recycle radix nodes: a worker writes a page or two per request,
// and without it each write would allocate a fresh buffer. A pooled
// buffer still holds what its last frame wrote, so whoever takes one
// zeroes every byte it does not overwrite. Shared bytes never enter
// it, since another machine or a file still reads them, and neither do
// 2 MiB buffers, which only huge-page runs write and are too rare to
// keep. sync.Pool keeps it safe for machines run concurrently.
var pagePool = sync.Pool{New: func() any { return new([PageSize]byte) }}

// ownedBuf returns a buffer for f to own, a frame long. A base frame's
// comes from pagePool with stale contents; the caller zeroes what it
// does not overwrite.
func ownedBuf(f FrameID) []byte {
	if f.IsHuge() {
		return make([]byte, HugeSize)
	}
	return pagePool.Get().(*[PageSize]byte)[:]
}

// zeroPage is the all-zero page allZero compares writes against.
var zeroPage [PageSize]byte

// allZero reports whether b holds only zero bytes, a page-sized chunk
// at a time.
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), PageSize)
		if !bytes.Equal(b[:n], zeroPage[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// Materialised reports whether f has real backing storage (false ⇒
// it is a lazy zero frame). Used by tests and memory accounting.
func (p *Physical) Materialised(f FrameID) bool {
	return p.live(f).next != 0
}

// CopyFrame duplicates src into a newly allocated frame of the same
// size, charging the copy cost (the COW-break path). The new frame has
// refcount 1.
func (p *Physical) CopyFrame(src FrameID) (FrameID, error) {
	srcData := p.data[p.live(src).next].bytes
	var dst FrameID
	var err error
	if src.IsHuge() {
		dst, err = p.AllocHuge()
		if err == nil {
			p.meter.Charge(p.meter.Model.HugeCopy)
			p.meter.PageCopies += FramesPerHuge
		}
	} else {
		dst, err = p.Alloc()
		if err == nil {
			p.meter.Charge(p.meter.Model.PageCopy)
			p.meter.PageCopies++
		}
	}
	if err != nil {
		return NoFrame, err
	}
	if srcData != nil {
		b := ownedBuf(dst)
		clear(b[copy(b, srcData):])
		s := p.newSlot()
		p.data[s] = frameData{bytes: b}
		p.slot(dst).next = s
	}
	return dst, nil
}

// ZeroFrame resets f's contents to zero (used when recycling pages
// within an address space, e.g. exec tearing down the old image).
func (p *Physical) ZeroFrame(f FrameID) {
	p.dropData(p.live(f))
	if f.IsHuge() {
		p.meter.Charge(p.meter.Model.HugeZero)
		p.meter.PageZeroes += FramesPerHuge
	} else {
		p.meter.Charge(p.meter.Model.PageZero)
		p.meter.PageZeroes++
	}
}
