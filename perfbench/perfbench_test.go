package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestTracedLedger checks the layer ledger of every workload's traced run:
// the self times plus unattributed_ms add up to the traced operation time,
// and every count repeats exactly across two runs.
func TestTracedLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("plans mix2k several times per workload")
	}
	ctx := context.Background()
	m, err := newMix(7)
	if err != nil {
		t.Fatal(err)
	}
	br := m.bridges(7, 128)
	fps := m.deltaFingerprints(br)
	for _, w := range workloads {
		w.maxTracedOps = w.countOps // the shortest run the counts allow
		var first map[string]float64
		for run := 0; run < 2; run++ {
			l, _, err := runTraced(ctx, w, m, br, fps, 0)
			if err != nil {
				t.Fatal(err)
			}
			if l.failed != 0 || l.ops != int64(w.countOps) {
				t.Fatalf("%s: %d of %d traced operations failed, want %d ops and none failed", w.name, l.failed, l.ops, w.countOps)
			}
			sum := l.unattributedNs
			for _, name := range ledgerMetrics {
				sum += l.selfNs[name]
			}
			if l.opNs <= 0 || math.Abs(sum-l.opNs) > 1e-9*l.opNs {
				t.Errorf("%s: self times + unattributed = %v ns, traced operation %v ns", w.name, sum, l.opNs)
			}
			if run == 0 {
				first = l.counts
			} else if !reflect.DeepEqual(first, l.counts) {
				t.Errorf("%s: counts differ across identical traced runs:\n%v\n%v", w.name, first, l.counts)
			}
		}
	}
}

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json names exactly
// the workloads, and the metrics with their units, that a run prints.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !slices.Equal(names, specNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", specNames, names)
	}

	run := &e2eRun{
		setups: []time.Duration{time.Second}, window: time.Second, cpu: time.Second,
		ops: tally{lat: []time.Duration{time.Millisecond}}, reads: tally{lat: []time.Duration{time.Millisecond}},
	}
	l := summarize(&tracer{}, nil, 0)
	for _, c := range []struct {
		kind string
		spec []named
		got  map[string]metric
	}{
		{"end_to_end", spec.EndToEnd, e2eMetrics(workloads[0], run)},
		{"per_layer", spec.PerLayer, layerMetrics(l, run)},
	} {
		want := make(map[string]string)
		for _, n := range c.spec {
			want[n.Name] = n.Unit
		}
		got := make(map[string]string)
		for name, m := range c.got {
			got[name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BENCHMARK.json lists %v, a run prints %v", c.kind, want, got)
		}
	}
}
