// Package net is the deterministic inter-machine message fabric: the
// wire connecting simulated machines into distributed topologies.
//
// A Fabric carries Packets between integer-addressed nodes (the
// machines, clients and load balancers of a sim/load network cell).
// Send stamps a packet with its arrival time — the send time plus the
// cost model's per-frame stack traversal, per-byte serialization, and
// one-way link latency — and NextArrival/DeliverNext hand packets back
// in (arrival time, destination address, sequence) order: exactly the
// machine-id merge the fleet runner uses, so any topology replays
// bit-for-bit at any GOMAXPROCS. The fabric charges no CPU: all three
// prices only move a packet's arrival time, and a harness that wants a
// CPU to pay for a send charges its own clock.
//
// Failure is a first-class input, like everywhere else in the
// simulator: every send consults fault.PointNetSend and every
// delivery fault.PointNetDeliver with Mag = fault.NetMag(src, dst),
// so schedules can sever one directed link (fault.LinkDown), cut a
// set of machines off (fault.NetSplit), or drop a deterministic
// pseudo-random fraction of frames (fault.NetChaos) — and the drops
// replay bit-for-bit too. Dropped packets are counted in the fabric's
// totals and per flow; the retina-style metrics plane (sim/metrics,
// `forkbench metrics`) exports those counters per machine/pool/zone.
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

// NodeStats is the fabric's cumulative packet accounting.
type NodeStats struct {
	PacketsSent, PacketsRecv uint64
	BytesSent, BytesRecv     uint64
	// DropsSend counts frames the source uplink severed
	// (PointNetSend); DropsRecv counts frames the fabric lost before
	// delivery (PointNetDeliver).
	DropsSend, DropsRecv uint64
}

// FlowKey identifies one directed (src, dst, label) flow.
type FlowKey struct {
	Src  int    `json:"src"`
	Dst  int    `json:"dst"`
	Flow string `json:"flow"`
}

// FlowStats is the per-flow counter set: the fabric's flow log.
type FlowStats struct {
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
	Drops   uint64 `json:"drops,omitempty"`
}

// Fabric is one network cell's wire. It is single-threaded by design,
// like the machines it connects: one cell is one deterministic
// discrete-event simulation, and host parallelism applies across
// cells (the fleet's machine axis), never within one.
type Fabric struct {
	nodes int
	model cost.Model
	sched fault.Schedule

	q        packetQueue
	seq      uint64
	sendOps  uint64 // PointNetSend op counter
	delivOps uint64 // PointNetDeliver op counter

	totals NodeStats
	flows  map[FlowKey]*FlowStats
}

// Option configures a Fabric.
type Option func(*Fabric)

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
		flows: map[FlowKey]*FlowStats{},
	}
	for _, o := range opts {
		o(f)
	}
	return f, nil
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
// fault schedule severed the uplink (the drop is counted in the
// totals and the flow). The arrival time is now + NetStack +
// Bytes*NetPerByte + NetLinkLatency.
func (f *Fabric) Send(src, dst int, flow string, tag, bytes uint64, now cost.Ticks) (Packet, bool) {
	f.checkAddr(src)
	f.checkAddr(dst)
	fl := f.flow(FlowKey{Src: src, Dst: dst, Flow: flow})
	f.sendOps++
	if f.sched != nil {
		op := fault.Op{Point: fault.PointNetSend, Seq: f.sendOps, Time: now, Mag: fault.NetMag(src, dst)}
		if f.sched.Decide(op) != errno.OK {
			f.totals.DropsSend++
			fl.Drops++
			return Packet{}, false
		}
	}
	f.seq++
	p := Packet{
		Src: src, Dst: dst, Flow: flow, Tag: tag, Bytes: bytes,
		Sent:    now,
		Arrival: now + f.model.NetStack + cost.Ticks(bytes)*f.model.NetPerByte + f.model.NetLinkLatency,
		seq:     f.seq,
	}
	f.totals.PacketsSent++
	f.totals.BytesSent += bytes
	fl.Packets++
	fl.Bytes += bytes
	heap.Push(&f.q, p)
	return p, true
}

// NextArrival reports the earliest queued arrival time (ok=false when
// the wire is empty). Dropped-at-delivery packets still occupy the
// queue until DeliverNext pops them — the drop decision is made at
// delivery time, like a last-hop loss.
func (f *Fabric) NextArrival() (cost.Ticks, bool) {
	if f.q.Len() == 0 {
		return 0, false
	}
	return f.q[0].Arrival, true
}

// DeliverNext pops the earliest queued packet regardless of time,
// consulting the fault schedule: it returns ok=false if the packet was
// dropped at delivery (counted in the totals and the flow) or the wire
// is empty. Event-loop drivers alternate NextArrival/DeliverNext.
func (f *Fabric) DeliverNext() (Packet, bool) {
	if f.q.Len() == 0 {
		return Packet{}, false
	}
	p := heap.Pop(&f.q).(Packet)
	f.delivOps++
	if f.sched != nil {
		op := fault.Op{Point: fault.PointNetDeliver, Seq: f.delivOps, Time: p.Arrival, Mag: fault.NetMag(p.Src, p.Dst)}
		if f.sched.Decide(op) != errno.OK {
			f.totals.DropsRecv++
			f.flow(FlowKey{Src: p.Src, Dst: p.Dst, Flow: p.Flow}).Drops++
			return Packet{}, false
		}
	}
	f.totals.PacketsRecv++
	f.totals.BytesRecv += p.Bytes
	return p, true
}

// Totals returns the fabric's cumulative counters (drops counted once
// per drop: send-side drops appear only in DropsSend, delivery drops
// only in DropsRecv).
func (f *Fabric) Totals() NodeStats { return f.totals }

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
