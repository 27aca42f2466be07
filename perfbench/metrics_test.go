package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
)

func histOf(n int, d func(i int) time.Duration) *loadgen.Hist {
	h := &loadgen.Hist{}
	for i := 0; i < n; i++ {
		h.Record(d(i))
	}
	return h
}

// A percentile is reportable only with at least ten samples beyond it.
func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, // 9 beyond
		{1001, 0.99, true}, // 10 beyond
		{100, 0.50, true},
		{19, 0.50, false},
		{9999, 0.999, false},
		{10001, 0.999, true},
		{0, 0.5, false},
	} {
		h := histOf(c.n, func(i int) time.Duration { return time.Duration(i+1) * time.Microsecond })
		_, ok := quantileUS(h, c.q)
		beyond := tailCount(uint64(c.n), c.q)
		if ok != (beyond >= minTail) {
			t.Fatalf("n=%d q=%v: ok=%v but %d samples beyond", c.n, c.q, ok, beyond)
		}
		if ok != c.want {
			t.Errorf("n=%d q=%v: reportable=%v, want %v (%d beyond)", c.n, c.q, ok, c.want, beyond)
		}
	}
}

// tailCount agrees with the histogram: exactly that many samples are larger
// than the reported quantile when all samples are distinct buckets.
func TestTailCountMatchesHist(t *testing.T) {
	const n = 50 // values 0..49 ns fall in distinct exact buckets
	h := histOf(n, func(i int) time.Duration { return time.Duration(i) })
	for _, q := range []float64{0.5, 0.8, 0.9, 0.98} {
		v := int(h.Quantile(q))
		if got, want := tailCount(n, q), uint64(n-1-v); got != want {
			t.Errorf("q=%v: tailCount %d, samples beyond %v: %d", q, got, v, want)
		}
	}
}

func TestQuantileValue(t *testing.T) {
	h := histOf(2000, func(i int) time.Duration { return time.Duration(i+1) * time.Microsecond })
	v, ok := quantileUS(h, 0.99)
	if !ok || v < 1950 || v > 2010 {
		t.Fatalf("p99 of 1..2000us = %v (ok %v), want ~1980", v, ok)
	}
}

func TestMedianAndWindows(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	w := newWindows(3*time.Second, 3)
	// 1000 samples in each window; window 1 is ten times slower.
	for win := 0; win < 3; win++ {
		for i := 0; i < 1500; i++ {
			d := 100 * time.Microsecond
			if win == 1 {
				d = time.Millisecond
			}
			w.record(time.Duration(win)*time.Second+time.Duration(i)*time.Microsecond, d)
		}
	}
	w.record(-time.Second, time.Hour)  // before the interval
	w.record(4*time.Second, time.Hour) // after it
	if got := w.throughput(); got != 1500 {
		t.Errorf("throughput = %v, want 1500", got)
	}
	if p50, ok := w.quantileUS(0.5); !ok || p50 < 99 || p50 > 102 {
		t.Errorf("median window p50 = %v (ok %v), want ~100", p50, ok)
	}
	if w.count() != 4500 {
		t.Errorf("count = %d, want 4500", w.count())
	}
}

func TestMetricNameValidation(t *testing.T) {
	good := []string{"latency_p50_us", "engine.begin_us.p50", "a", "0x", "wal.checkpoint_ms.max", "kv-served", strings.Repeat("a", 64)}
	for _, n := range good {
		if err := validateDefs([]metricDef{{n, "us", "lower", 0}}); err != nil {
			t.Errorf("%q rejected: %v", n, err)
		}
	}
	bad := []string{"", ".p50", "_x", "-x", "has space", "p99µs", "a/b", "a:b", strings.Repeat("a", 65)}
	for _, n := range bad {
		if err := validateDefs([]metricDef{{n, "us", "lower", 0}}); err == nil {
			t.Errorf("%q accepted", n)
		}
	}
	if err := validateDefs([]metricDef{{"x", "txn/s", "lower", 0}, {"x", "us", "lower", 0}}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := validateDefs([]metricDef{{"x", "seconds and more", "lower", 0}}); err == nil {
		t.Error("bad unit accepted")
	}
	if err := validateDefs([]metricDef{{"x", "s", "faster", 0}}); err == nil {
		t.Error("bad direction accepted")
	}
	if err := validateDefs(append(append([]metricDef(nil), endToEnd...), perLayer...)); err != nil {
		t.Errorf("registry: %v", err)
	}
}

// BENCHMARK.json at the repository root lists exactly the registry's
// metrics, with the same units, directions and bounds.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, registry %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, registry %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, registry %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, registry %+v", i, m, d)
		}
	}
}

func TestStreamSeeds(t *testing.T) {
	p := params{seed: 7}
	seen := map[int64]bool{}
	for _, s := range []int{streamInputs, streamBackoff} {
		for c := 0; c < 4; c++ {
			v := p.streamSeed(s, c)
			if seen[v] {
				t.Fatalf("stream %d client %d repeats a seed", s, c)
			}
			seen[v] = true
			if v != p.streamSeed(s, c) {
				t.Fatal("streamSeed is not deterministic")
			}
		}
	}
	if (params{seed: 8}).streamSeed(streamInputs, 0) == p.streamSeed(streamInputs, 0) {
		t.Error("different workload seeds give the same client seed")
	}
}
