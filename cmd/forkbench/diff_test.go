package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/sim/load"
)

// TestRunDiffGatesEveryMetric changes each JSON field of load.Metrics
// in turn — the list read off the struct, so a field added later is
// covered too — and checks that the drift gate fails and names it.
// Fields that change the run key are skipped: they identify a run, and
// changing one makes a missing+added pair, which TestRunDiff covers.
func TestRunDiffGatesEveryMetric(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, m *load.Metrics) string {
		t.Helper()
		data, err := json.Marshal([]*load.Metrics{m})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := load.Metrics{Scenario: "prefork", Strategy: "fork+exec", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4}
	old := write("old.json", &base)

	var buf bytes.Buffer
	prev := diffOut
	diffOut = &buf
	defer func() { diffOut = prev }()

	checked := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(base)) {
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Anonymous || key == "" || key == "-" {
			continue
		}
		changed := base
		switch v := reflect.ValueOf(&changed).Elem().FieldByIndex(f.Index); v.Kind() {
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		default:
			t.Fatalf("%s: no perturbation for kind %s", key, v.Kind())
		}
		if runKey(&changed) != runKey(&base) {
			continue
		}
		checked++
		buf.Reset()
		if err := runDiff([]string{old, write(key+".json", &changed)}); err == nil {
			t.Errorf("%s changed, but the gate passed", key)
		} else if !strings.Contains(buf.String(), "drift:   "+runKey(&base)+": "+key) {
			t.Errorf("%s changed, but the report does not name it:\n%s", key, buf.String())
		}
	}
	// The run key excludes exactly the fields runKey reads.
	if checked != len(metricFields) {
		t.Errorf("checked %d metric fields, the gate compares %d", checked, len(metricFields))
	}
}
