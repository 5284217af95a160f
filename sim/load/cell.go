package load

import (
	"repro/internal/cost"
	simnet "repro/sim/net"
)

// cell is one measured run: the Servers it drives, the fabric between
// them (nil for a single machine), and one window over their meters.
// Each run's loop — a single-machine pass, the network cells' event
// loop or the migrations — opens it after warm-up and closes it into
// its Metrics, and Templates.Run drains it, so every machine a run boots
// retires through Server.Drain on every path, error paths included.
type cell struct {
	cfg     Config
	servers []*Server
	fab     *simnet.Fabric
	// The window's baselines: Σ context switches and OOM kills at open.
	csw, oom uint64
}

// add puts a freshly warmed machine in the cell, so drain retires it,
// and passes its warm-up's error through.
func (c *cell) add(s *Server, err error) error {
	if err == nil {
		c.servers = append(c.servers, s)
	}
	return err
}

// wire builds the fabric between the cell's machines: nodes addresses,
// with cfg.Faults as the wire's schedule.
func (c *cell) wire(nodes int) (err error) {
	var opts []simnet.Option
	if c.cfg.Faults != nil {
		opts = append(opts, simnet.WithFaults(c.cfg.Faults))
	}
	c.fab, err = simnet.New(nodes, cost.DefaultModel(), opts...)
	return err
}

// open starts the measured window: every machine's meter zeroed, the
// context-switch and OOM-kill baselines noted, and each machine's peak
// restarted from one sample.
func (c *cell) open() {
	for _, s := range c.servers {
		s.k.Meter().ResetCounters()
		c.csw += s.k.ContextSwitches()
		c.oom += uint64(s.k.OOMKills)
		s.peakPages = 0
		s.sample()
	}
}

// sample records every machine's physical-memory high-water mark.
func (c *cell) sample() {
	for _, s := range c.servers {
		s.sample()
	}
}

// close completes m, whose loop tallies — requests, creations,
// failures, virtual time and the scenario's own counters — the loop
// filled: the header, the counters and OOM kills summed over the
// machines, the highest machine peak, the fabric's totals and flow log,
// and the per-virtual-second rates.
func (c *cell) close(m *Metrics) *Metrics {
	m.Scenario, m.Strategy = string(c.cfg.Scenario), c.cfg.Via.String()
	m.HeapBytes, m.RAMBytes, m.NumCPUs = c.servers[0].warm.heapBytes, c.cfg.RAMBytes, c.cfg.CPUs
	for _, s := range c.servers {
		m.Counters.Add(Counters(s.k.Counters()))
		m.OOMKills += uint64(s.k.OOMKills)
		m.PeakRSSBytes = max(m.PeakRSSBytes, s.PeakRSSBytes())
	}
	m.ContextSwitches -= c.csw
	m.OOMKills -= c.oom
	if c.fab != nil {
		tot := c.fab.Totals()
		m.NetPacketsSent = tot.PacketsSent
		m.NetPacketsRecv = tot.PacketsRecv
		m.NetBytesSent = tot.BytesSent
		m.NetBytesRecv = tot.BytesRecv
		m.NetDrops = tot.DropsSend + tot.DropsRecv
		for _, fl := range c.fab.Flows() {
			m.NetFlows = append(m.NetFlows, NetFlow{
				Src: fl.Src, Dst: fl.Dst, Flow: fl.Flow,
				Packets: fl.Packets, Bytes: fl.Bytes, Drops: fl.Drops,
			})
		}
	}
	if m.VirtualNanos > 0 {
		m.RequestsPerVSec = float64(m.Requests) * 1e9 / float64(m.VirtualNanos)
		m.CreationsPerVSec = float64(m.Creations) * 1e9 / float64(m.VirtualNanos)
	}
	return m
}

// drain retires every machine in the cell through Server.Drain and
// returns the first one's error.
func (c *cell) drain() error {
	var first error
	for _, s := range c.servers {
		if err := s.Drain(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
