package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesTable holds BENCHMARK.json to the harness's own
// metric table, workload list and run length, so neither drifts.
func TestManifestMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, harness default %v", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	defs := workloads()
	if len(doc.Workloads) != len(defs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(defs))
	}
	for i, w := range doc.Workloads {
		if w.Name != defs[i].name || w.Why != defs[i].why {
			t.Errorf("workload %d = %q (%q), harness has %q (%q)", i, w.Name, w.Why, defs[i].name, defs[i].why)
		}
	}
	var e2e, layers []metric
	seen := map[string]bool{}
	for _, m := range metricTable {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.E2E {
			e2e = append(e2e, m)
		} else {
			layers = append(layers, m)
		}
	}
	check := func(kind string, rows []row, want []metric, bounded bool) {
		if len(rows) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(rows), kind, len(want))
		}
		for i, r := range rows {
			m := want[i]
			if r.Name != m.Name || r.Unit != m.Unit || r.Better != m.Better {
				t.Errorf("%s metric %d = %+v, harness has %+v", kind, i, r, m)
			}
			switch {
			case bounded && (r.Bound == nil || *r.Bound != m.Bound):
				t.Errorf("%s: bound in BENCHMARK.json does not match the harness's %v", m.Name, m.Bound)
			case !bounded && r.Bound != nil:
				t.Errorf("%s: a per-layer metric carries a bound", m.Name)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, e2e, true)
	check("per-layer", doc.PerLayer, layers, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestPickReportsEveryRow: an untraced result carries exactly the
// end-to-end metrics, a traced one exactly the per-layer ones, even for
// rows the workload never set.
func TestPickReportsEveryRow(t *testing.T) {
	for _, traced := range []bool{false, true} {
		got := pick(values{}, traced)
		for _, m := range metricTable {
			if _, ok := got[m.Name]; ok != (m.E2E != traced) {
				t.Errorf("traced=%v: metric %s present=%v", traced, m.Name, ok)
			}
		}
	}
}
