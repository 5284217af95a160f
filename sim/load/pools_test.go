package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/mem"
	"repro/sim"
)

// TestStampsShareReusePools runs two goroutines that stamp machines
// from one template at once, so the buffers, nodes and records one
// machine frees are what the other takes next: mem's page pool,
// pagetable's leaf and interior pools, and the migrate cell's record
// pool are process-wide. Each machine writes its own pattern into its
// heap, frees those pages, maps them again and rewrites them, runs a
// migrate cell stamped from the same template, and must then read back
// exactly its own bytes; every migrate cell must report what a serial
// run does; and no stamp may lower the template's count of shared
// frames, since stamps only read a template. CI's race job runs it ten
// times under -race.
func TestStampsShareReusePools(t *testing.T) {
	const (
		rounds = 6
		pages  = 8
	)
	cfg := Config{Scenario: Migrate, Via: sim.ForkExec, Requests: 1, HeapBytes: 4 << 20}
	tc := NewTemplates()
	tpl, err := tc.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tphys := tpl.tpl.Kernel().Phys()
	baseShared := tphys.SharedFrames()
	want, err := tc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	machine := func(g, r int) (err error) {
		p, err := tpl.Stamp(cfg)
		if err != nil {
			return err
		}
		// The rewrite frees and refills the same pages, so the
		// machine is back at its books when it is retired.
		defer func() {
			if derr := p.Drain(); err == nil {
				err = derr
			}
		}()
		s := p.sys.Host().Space()
		fill := func(seed byte) []byte {
			b := bytes.Repeat([]byte{seed}, pages*mem.PageSize)
			for i := range b {
				b[i] += byte(i / 97)
			}
			return b
		}
		if err := s.WriteBytes(p.warm.heapStart, fill(byte(16*g+r))); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		if err := s.Unmap(p.warm.heapStart, pages*mem.PageSize); err != nil {
			return fmt.Errorf("free: %w", err)
		}
		if _, err := s.Map(p.warm.heapStart, pages*mem.PageSize, addrspace.Read|addrspace.Write, addrspace.MapOpts{Kind: addrspace.KindAnon, Name: "server-heap"}); err != nil {
			return fmt.Errorf("remap: %w", err)
		}
		own := fill(byte(16*g + r + 128))
		if err := s.WriteBytes(p.warm.heapStart, own[:len(own)-100]); err != nil {
			return fmt.Errorf("rewrite: %w", err)
		}
		clear(own[len(own)-100:]) // a fresh page reads zero past the rewrite
		m, err := tc.Run(cfg)
		if err != nil {
			return fmt.Errorf("migrate: %w", err)
		}
		gotJSON, err := json.Marshal(m)
		if err != nil {
			return err
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			return fmt.Errorf("migrate cell reports %s, serially %s", gotJSON, wantJSON)
		}
		got := make([]byte, len(own))
		if err := s.ReadBytes(p.warm.heapStart, got); err != nil {
			return fmt.Errorf("read: %w", err)
		}
		if !bytes.Equal(got, own) {
			return fmt.Errorf("heap does not read back the machine's own bytes")
		}
		if n := tphys.SharedFrames(); n < baseShared {
			return fmt.Errorf("template shared frames fell from %d to %d", baseShared, n)
		}
		return nil
	}

	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				if err := machine(g, r); err != nil {
					t.Errorf("goroutine %d, machine %d: %v", g, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
