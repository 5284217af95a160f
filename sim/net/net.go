// Package net is the deterministic inter-machine message fabric: the
// wire connecting simulated machines into distributed topologies.
//
// A Fabric carries Packets between integer-addressed nodes (machine
// NICs, harness-level clients and load balancers). Send stamps a
// packet with its arrival time — the send time plus the cost model's
// per-frame stack traversal, per-byte serialization, and the link's
// one-way propagation latency — and Deliver hands packets back in
// (arrival time, destination address, sequence) order: exactly the
// machine-id merge the fleet runner uses, so any topology replays
// bit-for-bit at any GOMAXPROCS. CPU-side costs are the *caller's* to
// charge (the kernel NIC does it in net_send / net_recv; harness nodes
// add them to their own clocks); the fabric itself only moves virtual
// time along the wire.
//
// Failure is a first-class input, like everywhere else in the
// simulator: every send consults fault.PointNetSend and every
// delivery fault.PointNetDeliver with Mag = fault.NetMag(src, dst),
// so schedules can sever one directed link (fault.LinkDown), cut a
// set of machines off (fault.NetSplit), or drop a deterministic
// pseudo-random fraction of frames (fault.NetChaos) — and the drops
// replay bit-for-bit too. Dropped packets are counted per node and
// per flow; the retina-style metrics plane (sim/metrics, `forkbench
// metrics`) exports those counters per machine/pool/zone.
package net

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/errno"
	"repro/internal/fault"
)

// Packet is one message in flight (or delivered). The payload is
// priced, not stored: Bytes drives the cost model, Tag carries the
// application correlation word.
type Packet struct {
	Src, Dst int
	Flow     string // flow label for the metrics plane ("req", "resp", ...)
	Tag      uint64
	Bytes    uint64
	Sent     cost.Ticks // send time on the source's clock
	Arrival  cost.Ticks // Sent + stack + serialization + link latency
	seq      uint64     // global send order, the deterministic tie-break
}

// NodeStats is one node's cumulative NIC-level accounting.
type NodeStats struct {
	PacketsSent, PacketsRecv uint64
	BytesSent, BytesRecv     uint64
	// DropsSend counts frames the source uplink severed
	// (PointNetSend); DropsRecv counts frames the fabric lost before
	// delivery (PointNetDeliver) — charged to the would-be receiver.
	DropsSend, DropsRecv uint64
}

// FlowKey identifies one directed (src, dst, label) flow.
type FlowKey struct {
	Src, Dst int
	Flow     string
}

// FlowStats is the per-flow counter set: the fabric's flow log.
type FlowStats struct {
	Packets, Bytes, Drops uint64
}

// Fabric is one network cell's wire. It is single-threaded by design,
// like the machines it connects: one cell is one deterministic
// discrete-event simulation, and host parallelism applies across
// cells (the fleet's machine axis), never within one.
type Fabric struct {
	nodes   int
	model   cost.Model
	sched   fault.Schedule
	latency func(src, dst int) cost.Ticks

	q        packetQueue
	seq      uint64
	sendOps  uint64 // PointNetSend op counter
	delivOps uint64 // PointNetDeliver op counter

	stats []NodeStats
	flows map[FlowKey]*FlowStats
}

// Option configures a Fabric.
type Option func(*Fabric)

// WithLatency overrides the uniform one-way link latency with a pure
// function of the endpoints (zone-aware topologies price cross-zone
// links higher). fn must be deterministic.
func WithLatency(fn func(src, dst int) cost.Ticks) Option {
	return func(f *Fabric) { f.latency = fn }
}

// WithFaults installs the drop schedule consulted at PointNetSend and
// PointNetDeliver.
func WithFaults(s fault.Schedule) Option {
	return func(f *Fabric) { f.sched = s }
}

// New creates a fabric connecting nodes addresses (0..nodes-1) under
// the given cost model.
func New(nodes int, model cost.Model, opts ...Option) (*Fabric, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("net: %d nodes (want >= 1)", nodes)
	}
	f := &Fabric{
		nodes: nodes,
		model: model,
		stats: make([]NodeStats, nodes),
		flows: map[FlowKey]*FlowStats{},
	}
	for _, o := range opts {
		o(f)
	}
	return f, nil
}

// Nodes reports the fabric's address-space size.
func (f *Fabric) Nodes() int { return f.nodes }

func (f *Fabric) linkLatency(src, dst int) cost.Ticks {
	if f.latency != nil {
		return f.latency(src, dst)
	}
	return f.model.NetLinkLatency
}

func (f *Fabric) flow(k FlowKey) *FlowStats {
	fs := f.flows[k]
	if fs == nil {
		fs = &FlowStats{}
		f.flows[k] = fs
	}
	return fs
}

func (f *Fabric) checkAddr(a int) {
	if a < 0 || a >= f.nodes {
		panic(fmt.Sprintf("net: address %d out of range [0,%d)", a, f.nodes))
	}
}

// Send puts one packet on the wire at virtual time now on the
// sender's clock, returning the enqueued packet, or ok=false when the
// fault schedule severed the uplink (the drop is counted against src
// and the flow). The arrival time is now + NetStack + Bytes*NetPerByte
// + link latency; the caller charges the CPU-side share of that to
// its own clock.
func (f *Fabric) Send(src, dst int, flow string, tag, bytes uint64, now cost.Ticks) (Packet, bool) {
	f.checkAddr(src)
	f.checkAddr(dst)
	fl := f.flow(FlowKey{Src: src, Dst: dst, Flow: flow})
	f.sendOps++
	if f.sched != nil {
		op := fault.Op{Point: fault.PointNetSend, Seq: f.sendOps, Time: now, Mag: fault.NetMag(src, dst)}
		if f.sched.Decide(op) != errno.OK {
			f.stats[src].DropsSend++
			fl.Drops++
			return Packet{}, false
		}
	}
	f.seq++
	p := Packet{
		Src: src, Dst: dst, Flow: flow, Tag: tag, Bytes: bytes,
		Sent:    now,
		Arrival: now + f.model.NetStack + cost.Ticks(bytes)*f.model.NetPerByte + f.linkLatency(src, dst),
		seq:     f.seq,
	}
	f.stats[src].PacketsSent++
	f.stats[src].BytesSent += bytes
	fl.Packets++
	fl.Bytes += bytes
	heap.Push(&f.q, p)
	return p, true
}

// NextArrival reports the earliest queued arrival time (ok=false when
// the wire is empty). Dropped-at-delivery packets still occupy the
// queue until Deliver pops them — the drop decision is made at
// delivery time, like a last-hop loss.
func (f *Fabric) NextArrival() (cost.Ticks, bool) {
	if f.q.Len() == 0 {
		return 0, false
	}
	return f.q[0].Arrival, true
}

// Deliver pops and returns every packet arriving at or before until,
// in (arrival, destination, seq) order, consulting the fault schedule
// per packet: dropped ones are counted (against the destination and
// the flow) and omitted from the result.
func (f *Fabric) Deliver(until cost.Ticks) []Packet {
	var out []Packet
	for f.q.Len() > 0 && f.q[0].Arrival <= until {
		if p, ok := f.deliverNext(); ok {
			out = append(out, p)
		}
	}
	return out
}

// DeliverNext pops the earliest queued packet regardless of time,
// returning ok=false if it was dropped at delivery (or the wire is
// empty). Event-loop drivers alternate NextArrival/DeliverNext.
func (f *Fabric) DeliverNext() (Packet, bool) {
	if f.q.Len() == 0 {
		return Packet{}, false
	}
	return f.deliverNext()
}

func (f *Fabric) deliverNext() (Packet, bool) {
	p := heap.Pop(&f.q).(Packet)
	f.delivOps++
	if f.sched != nil {
		op := fault.Op{Point: fault.PointNetDeliver, Seq: f.delivOps, Time: p.Arrival, Mag: fault.NetMag(p.Src, p.Dst)}
		if f.sched.Decide(op) != errno.OK {
			f.stats[p.Dst].DropsRecv++
			f.flow(FlowKey{Src: p.Src, Dst: p.Dst, Flow: p.Flow}).Drops++
			return Packet{}, false
		}
	}
	f.stats[p.Dst].PacketsRecv++
	f.stats[p.Dst].BytesRecv += p.Bytes
	return p, true
}

// InFlight reports how many packets are queued on the wire.
func (f *Fabric) InFlight() int { return f.q.Len() }

// Stats returns node addr's cumulative counters.
func (f *Fabric) Stats(addr int) NodeStats {
	f.checkAddr(addr)
	return f.stats[addr]
}

// Totals sums every node's counters (drops counted once per drop:
// send-side drops appear only in DropsSend, delivery drops only in
// DropsRecv).
func (f *Fabric) Totals() NodeStats {
	var t NodeStats
	for _, s := range f.stats {
		t.PacketsSent += s.PacketsSent
		t.PacketsRecv += s.PacketsRecv
		t.BytesSent += s.BytesSent
		t.BytesRecv += s.BytesRecv
		t.DropsSend += s.DropsSend
		t.DropsRecv += s.DropsRecv
	}
	return t
}

// Flow is one entry of the flow log: key plus counters.
type Flow struct {
	FlowKey
	FlowStats
}

// Flows returns the flow log sorted by (src, dst, label) — a
// deterministic render order for the metrics plane.
func (f *Fabric) Flows() []Flow {
	out := make([]Flow, 0, len(f.flows))
	for k, fs := range f.flows {
		out = append(out, Flow{FlowKey: k, FlowStats: *fs})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Flow < b.Flow
	})
	return out
}

// packetQueue is the wire: a min-heap ordered by (arrival,
// destination address, send seq). The destination tie-break is the
// fleet's machine-id merge; the seq tie-break makes same-instant
// same-destination deliveries follow send order.
type packetQueue []Packet

func (q packetQueue) Len() int { return len(q) }
func (q packetQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	return a.seq < b.seq
}
func (q packetQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *packetQueue) Push(x any)   { *q = append(*q, x.(Packet)) }
func (q *packetQueue) Pop() any {
	old := *q
	n := len(old)
	p := old[n-1]
	*q = old[:n-1]
	return p
}
