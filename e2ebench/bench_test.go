package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload briefly and requires the
// self-check to pass and every end-to-end metric to be reported.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real fleets over loopback TCP")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := &runConfig{workload: wl, seed: 1, seconds: 1, setups: 1, out: t.TempDir()}
			res, err := runPlain(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("metric %s missing or with unit %q", d.name, m.Unit)
				}
				if m.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", d.name, m.Value)
				}
			}
		})
	}
}

// TestTracedRunReportsEveryLayer runs a short traced kv-put and requires
// every per-layer metric, with the layers kv-put exercises measured.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real fleets over loopback TCP")
	}
	wl, _ := findWorkload("kv-put")
	cfg := &runConfig{workload: wl, seed: 2, seconds: 1, setups: 1, out: t.TempDir()}
	res, err := runTraced(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("self-check failed")
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	for _, name := range []string{
		"core.nulls_sent_per_op", "trace.stable_p50_ms", "rsm.propose_apply_p50_ms",
		"storage.fsyncs_per_op", "tcpnet.writes_per_op", "client.retries_per_op", "trace.spans",
	} {
		if v := res.Metrics[name].Value; v == absentValue {
			t.Errorf("%s is absent on kv-put", name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metric
// and workload catalogues of this program in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

// TestLatHistPrecision checks the histogram's bucket mapping and quantile.
func TestLatHistPrecision(t *testing.T) {
	for _, v := range []int64{0, 1, 1023, 1024, 1025, 2047, 2048, 28_123, 987_654, 21_000_000, 5_000_000_000} {
		got := bucketValue(bucketOf(v))
		if math.Abs(got-float64(v)) > float64(v)/1024 {
			t.Errorf("value %d reads back as %v", v, got)
		}
	}
	h := newLatHist()
	for v := 1; v <= 1000; v++ {
		h.record(time.Duration(v))
	}
	if p50, p99 := h.quantile(0.5), h.quantile(0.99); p50 != 500 || p99 != 990 {
		t.Errorf("p50 %v p99 %v, want 500 and 990", p50, p99)
	}
}
