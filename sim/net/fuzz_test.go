package net

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
)

// FuzzNetDeliver drives random topologies, link latencies, traffic,
// and partition schedules through the fabric's event-loop surface
// (Send, NextArrival, DeliverNext) and checks the invariants a
// deterministic wire must keep: no panic, no lost-or-duplicated
// message (every delivered tag unique, and the totals conserve
// packets: sent = received + dropped at delivery, attempts = sent +
// dropped at send), byte totals equal to what Send accepted and the
// drains received, delivery times non-decreasing within each drain,
// and a bit-identical replay.
func FuzzNetDeliver(f *testing.F) {
	f.Add([]byte{4, 8, 1, 2, 3, 4, 5, 6, 7, 8}, uint64(1))
	f.Add([]byte{2, 0, 255, 254, 253}, uint64(42))
	f.Add([]byte{8, 100, 9, 9, 9, 0, 1, 2}, uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) < 2 {
			return
		}
		nodes := int(data[0])%8 + 2
		// A seed-derived partition: cut off a prefix of the address
		// space for a window, plus pseudo-random chaos drops.
		isolated := []int{}
		for a := 0; a < int(seed%uint64(nodes)); a++ {
			isolated = append(isolated, a)
		}
		sched := fault.Any(
			fault.NetSplit{
				Isolated: isolated,
				From:     cost.Ticks(data[1]) * cost.Microsecond,
				Until:    cost.Ticks(data[1])*cost.Microsecond + cost.Millisecond,
			},
			fault.NetChaos(seed, 0),
		)
		// The link latency comes from the fuzz input; per-byte
		// serialization makes arrival order differ from send order.
		model := cost.DefaultModel()
		model.NetLinkLatency = cost.Ticks(data[0]) * cost.Microsecond
		type tally struct{ sentBytes, delivered, deliveredBytes uint64 }
		run := func() (string, NodeStats, tally) {
			fab, err := New(nodes, model, WithFaults(sched))
			if err != nil {
				t.Fatal(err)
			}
			transcript := ""
			var n tally
			seen := map[uint64]bool{}
			// deliver drains every packet arriving by until; within
			// one drain arrival order must be monotone (later sends
			// may of course arrive earlier than already-delivered
			// packets — the wire cannot deliver the future).
			deliver := func(until cost.Ticks) {
				last := cost.Ticks(0)
				for at, ok := fab.NextArrival(); ok && at <= until; at, ok = fab.NextArrival() {
					p, ok := fab.DeliverNext()
					if !ok {
						continue
					}
					if p.Arrival != at {
						t.Fatalf("delivered tag %d arriving at %v, NextArrival said %v", p.Tag, p.Arrival, at)
					}
					if seen[p.Tag] {
						t.Fatalf("duplicate delivery of tag %d", p.Tag)
					}
					seen[p.Tag] = true
					if p.Arrival < last {
						t.Fatalf("delivery time went backwards: %v after %v", p.Arrival, last)
					}
					last = p.Arrival
					n.delivered++
					n.deliveredBytes += p.Bytes
					transcript += fmt.Sprintf("%d@%d>%d;", p.Tag, p.Arrival, p.Dst)
				}
			}
			for i, b := range data[2:] {
				src := int(b) % nodes
				dst := int(b>>3) % nodes
				if p, ok := fab.Send(src, dst, "fz", uint64(i), uint64(b)*17, cost.Ticks(i)*cost.Microsecond); ok {
					n.sentBytes += p.Bytes
				}
				// Interleave partial drains with sends.
				if b%3 == 0 {
					deliver(cost.Ticks(i) * 10 * cost.Microsecond)
				}
			}
			deliver(^cost.Ticks(0))
			if _, ok := fab.NextArrival(); ok {
				t.Fatal("packets left on the wire after the final drain")
			}
			return transcript, fab.Totals(), n
		}
		tr1, tot, n := run()
		// Conservation: every packet that made it onto the wire was
		// delivered or dropped at the last hop; send-side drops never
		// entered it.
		if tot.PacketsSent != tot.PacketsRecv+tot.DropsRecv {
			t.Fatalf("lost messages: sent %d, received %d, recv-drops %d",
				tot.PacketsSent, tot.PacketsRecv, tot.DropsRecv)
		}
		if tot.PacketsRecv != n.delivered || tot.BytesRecv != n.deliveredBytes {
			t.Fatalf("totals received %d packets / %d bytes, the drains saw %d / %d",
				tot.PacketsRecv, tot.BytesRecv, n.delivered, n.deliveredBytes)
		}
		if tot.BytesSent != n.sentBytes {
			t.Fatalf("totals sent %d bytes, Send accepted %d", tot.BytesSent, n.sentBytes)
		}
		if attempts := uint64(len(data) - 2); tot.PacketsSent+tot.DropsSend != attempts {
			t.Fatalf("send accounting: %d sent + %d send-drops != %d attempts",
				tot.PacketsSent, tot.DropsSend, attempts)
		}
		// Determinism: the identical run replays bit-for-bit.
		tr2, tot2, _ := run()
		if tr1 != tr2 || tot != tot2 {
			t.Fatalf("replay diverged:\n%s\n%s", tr1, tr2)
		}
	})
}
