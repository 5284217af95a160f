package cost

import (
	"reflect"
	"testing"
)

func TestTickFormatting(t *testing.T) {
	cases := []struct {
		in   Ticks
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2_500_000, "2.500ms"},
		{3_000_000_000, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", uint64(c.in), got, c.want)
		}
	}
	if Ticks(1500).Micros() != 1.5 {
		t.Error("Micros wrong")
	}
	if Ticks(2_500_000).Millis() != 2.5 {
		t.Error("Millis wrong")
	}
}

// counterFields are the meter's event counters: every exported
// uint64 field, the embedded Counters' promoted ones and PTNodes.
func counterFields(m *Meter) []reflect.Value {
	v := reflect.ValueOf(m).Elem()
	var out []reflect.Value
	for _, f := range reflect.VisibleFields(v.Type()) {
		if f.IsExported() && f.Type.Kind() == reflect.Uint64 {
			out = append(out, v.FieldByIndex(f.Index))
		}
	}
	return out
}

func TestMeterChargesAndCounters(t *testing.T) {
	m := NewMeter(DefaultModel())
	m.Charge(m.Model.PageCopy)
	if m.Now() != m.Model.PageCopy {
		t.Errorf("Now = %v", m.Now())
	}
	fields := counterFields(m)
	if want := reflect.TypeOf(Counters{}).NumField() + 1; len(fields) != want {
		t.Fatalf("meter has %d counters, want Counters' fields + PTNodes = %d", len(fields), want)
	}
	for _, f := range fields {
		f.SetUint(1)
	}
	m.ResetCounters()
	for i, f := range counterFields(m) {
		if f.Uint() != 0 {
			t.Errorf("ResetCounters missed counter %d", i)
		}
	}
	if m.Now() == 0 {
		t.Error("ResetCounters must not reset the clock")
	}
}

// TestCountersAddCoversEveryField holds Add to the struct: field i
// starts at i+1 on one side and 100(i+1) on the other, so a field
// added without its Add line, or an Add line summing the wrong field,
// fails here.
func TestCountersAddCoversEveryField(t *testing.T) {
	var a, b Counters
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Uint(), uint64(101*(i+1)); got != want {
			t.Errorf("after Add, %s = %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

func TestMeterPerCPUClocks(t *testing.T) {
	m := NewMeterSMP(DefaultModel(), 4)
	if m.NumCPUs() != 4 {
		t.Fatalf("NumCPUs = %d", m.NumCPUs())
	}
	m.Charge(100) // CPU 0
	m.SetActiveCPU(2)
	m.Charge(30)
	if m.CPUClock(0) != 100 || m.CPUClock(1) != 0 || m.CPUClock(2) != 30 {
		t.Errorf("clocks = %d %d %d", m.CPUClock(0), m.CPUClock(1), m.CPUClock(2))
	}
	if m.Now() != 30 {
		t.Errorf("Now on CPU 2 = %v", m.Now())
	}
	if m.MaxClock() != 100 {
		t.Errorf("MaxClock = %v", m.MaxClock())
	}
	// Idle fast-forward counts toward the clock but not busy time.
	m.IdleTo(1, 80)
	if m.CPUClock(1) != 80 || m.CPUBusy(1) != 0 {
		t.Errorf("after IdleTo: clock=%v busy=%v", m.CPUClock(1), m.CPUBusy(1))
	}
	m.IdleTo(1, 50) // in the past: no-op
	if m.CPUClock(1) != 80 {
		t.Errorf("IdleTo went backwards: %v", m.CPUClock(1))
	}
	if m.CPUBusy(0) != 100 || m.CPUBusy(2) != 30 {
		t.Errorf("busy = %v %v", m.CPUBusy(0), m.CPUBusy(2))
	}
}

func TestChargeShootdown(t *testing.T) {
	m := NewMeterSMP(DefaultModel(), 8)
	m.ChargeShootdown(0)
	m.ChargeShootdown(-1)
	if m.TLBShootdowns != 0 || m.Now() != 0 {
		t.Fatal("no-op shootdown charged something")
	}
	m.ChargeShootdown(3)
	if m.TLBShootdowns != 3 {
		t.Errorf("TLBShootdowns = %d", m.TLBShootdowns)
	}
	if m.Now() != 3*m.Model.TLBShootIPI {
		t.Errorf("charged %v, want %v", m.Now(), 3*m.Model.TLBShootIPI)
	}
	m.ResetCounters()
	if m.TLBShootdowns != 0 {
		t.Error("ResetCounters missed TLBShootdowns")
	}
}

func TestDefaultModelSanity(t *testing.T) {
	m := DefaultModel()
	// The relationships the experiments depend on.
	if m.PTEWrite == 0 || m.PageCopy == 0 || m.SpawnSetup == 0 {
		t.Fatal("zero cost for a core operation")
	}
	if m.HugeCopy <= m.PageCopy {
		t.Error("2MiB copy should cost more than 4KiB copy")
	}
	if m.SpawnSetup <= m.ProcAlloc {
		t.Error("spawn setup must exceed bare process allocation (fork wins for tiny parents)")
	}
	if m.PageFault <= m.PTWalk {
		t.Error("a fault costs more than a table walk")
	}
	if m.TLBShootIPI == 0 {
		t.Error("shootdown IPIs must cost something or SMP fork is free")
	}
}
