package net

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
)

// never is a drain bound past every arrival.
const never = ^cost.Ticks(0)

// drain delivers every packet arriving at or before until, in wire
// order, and returns the ones not dropped at delivery.
func drain(f *Fabric, until cost.Ticks) []Packet {
	var out []Packet
	for at, ok := f.NextArrival(); ok && at <= until; at, ok = f.NextArrival() {
		if p, ok := f.DeliverNext(); ok {
			out = append(out, p)
		}
	}
	return out
}

// TestArrivalCostModel: arrival = send + stack + bytes*perByte +
// latency, every term read from the fabric's cost model.
func TestArrivalCostModel(t *testing.T) {
	m := cost.DefaultModel()
	f, err := New(3, m)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := f.Send(0, 2, "req", 1, 1000, 5*cost.Microsecond)
	if !ok {
		t.Fatal("clean send dropped")
	}
	want := 5*cost.Microsecond + m.NetStack + 1000*m.NetPerByte + m.NetLinkLatency
	if p.Arrival != want {
		t.Errorf("arrival = %v, want %v", p.Arrival, want)
	}

	slow := m
	slow.NetLinkLatency = 2 * cost.Millisecond
	f2, _ := New(3, slow)
	p2, _ := f2.Send(0, 2, "req", 1, 0, 0)
	if want := m.NetStack + 2*cost.Millisecond; p2.Arrival != want {
		t.Errorf("slow-link arrival = %v, want %v", p2.Arrival, want)
	}
}

// TestDeliveryOrder: packets come back in (arrival, dst, seq) order
// regardless of send order.
func TestDeliveryOrder(t *testing.T) {
	m := cost.Model{NetStack: 0, NetPerByte: 0, NetLinkLatency: 0}
	f, _ := New(4, m)
	// Same arrival time, different destinations and send order.
	f.Send(0, 3, "a", 1, 0, 10)
	f.Send(0, 1, "a", 2, 0, 10)
	f.Send(0, 3, "a", 3, 0, 10)
	f.Send(1, 2, "a", 4, 0, 5) // earlier arrival
	var got []string
	for _, p := range drain(f, never) {
		got = append(got, fmt.Sprintf("t%d->d%d", p.Tag, p.Dst))
	}
	want := []string{"t4->d2", "t2->d1", "t1->d3", "t3->d3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("delivery order %v, want %v", got, want)
	}
}

// TestDropAccounting: send-side and delivery-side drops land in the
// right counters and the flow log, and conservation holds.
func TestDropAccounting(t *testing.T) {
	m := cost.DefaultModel()
	f, _ := New(2, m, WithFaults(fault.Any(
		fault.FailOp(fault.PointNetSend, 2, 5),    // second send severed
		fault.FailOp(fault.PointNetDeliver, 2, 5), // second delivery lost
	)))
	for i := 0; i < 4; i++ {
		f.Send(0, 1, "req", uint64(i), 100, 0)
	}
	delivered := drain(f, cost.Second)
	if len(delivered) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(delivered))
	}
	if _, ok := f.NextArrival(); ok {
		t.Error("packets left on the wire after the drain")
	}
	tot := f.Totals()
	if tot.PacketsSent != 3 || tot.DropsSend != 1 || tot.BytesSent != 300 {
		t.Errorf("send totals = %+v, want 3 sent (300 bytes) 1 send-drop", tot)
	}
	if tot.PacketsRecv != 2 || tot.DropsRecv != 1 || tot.BytesRecv != 200 {
		t.Errorf("receive totals = %+v, want 2 recv (200 bytes) 1 recv-drop", tot)
	}
	fl := f.Flows()
	if len(fl) != 1 {
		t.Fatalf("flow log has %d entries, want 1", len(fl))
	}
	if fl[0].Packets != 3 || fl[0].Drops != 2 || fl[0].Bytes != 300 {
		t.Errorf("flow = %+v, want 3 packets 2 drops 300 bytes", fl[0])
	}
	// Conservation: everything sent was delivered or dropped.
	if tot.PacketsSent != tot.PacketsRecv+tot.DropsRecv {
		t.Errorf("conservation: sent %d != recv %d + recv-drops %d",
			tot.PacketsSent, tot.PacketsRecv, tot.DropsRecv)
	}
}

// TestNetSplitSchedule: a partition drops exactly the straddling
// deliveries during its window.
func TestNetSplitSchedule(t *testing.T) {
	m := cost.Model{} // zero latency: arrival == send time
	split := fault.NetSplit{Isolated: []int{2, 3}, From: 100, Until: 200}
	f, _ := New(4, m, WithFaults(split))
	type c struct {
		src, dst int
		at       cost.Ticks
		want     bool // delivered?
	}
	cases := []c{
		{0, 1, 150, true},  // both outside
		{2, 3, 150, true},  // both inside
		{0, 2, 150, false}, // straddles, inside window
		{2, 0, 150, false}, // straddles, other direction
		{0, 2, 250, true},  // straddles, after healing
		{0, 2, 50, true},   // straddles, before the cut
	}
	for i, tc := range cases {
		f.Send(tc.src, tc.dst, "x", uint64(i), 0, tc.at)
	}
	got := map[uint64]bool{}
	for _, p := range drain(f, never) {
		got[p.Tag] = true
	}
	for i, tc := range cases {
		if got[uint64(i)] != tc.want {
			t.Errorf("case %d (%d->%d at %d): delivered=%v, want %v",
				i, tc.src, tc.dst, tc.at, got[uint64(i)], tc.want)
		}
	}
}

// TestReplayDeterminism: the same sends against the same schedule
// replay an identical delivery transcript.
func TestReplayDeterminism(t *testing.T) {
	run := func() string {
		f, _ := New(5, cost.DefaultModel(), WithFaults(fault.NetChaos(7, 0)))
		for i := 0; i < 200; i++ {
			src := i % 5
			dst := (i*3 + 1) % 5
			if src == dst {
				dst = (dst + 1) % 5
			}
			f.Send(src, dst, "f", uint64(i), uint64(i*13%512), cost.Ticks(i)*cost.Microsecond)
		}
		var out string
		for _, p := range drain(f, never) {
			out += fmt.Sprintf("%d@%d;", p.Tag, p.Arrival)
		}
		out += fmt.Sprintf("totals=%+v", f.Totals())
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("replay diverged:\n%s\n%s", a, b)
	}
}
