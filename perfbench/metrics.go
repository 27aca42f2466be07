package main

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"time"

	"repro/internal/loadgen"
)

// metricDef is one metric the benchmark reports. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds
// (TestRegistryMatchesBenchmarkJSON keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: tolerated worsening, as a share of the median
}

// endToEnd are the gated end-to-end metrics, measured with tracing off and
// reported by every workload. Only figures that stay steady when the shared
// machine changes speed are gated; LAYERS.md gives the measurements behind
// that choice.
var endToEnd = []metricDef{
	{"alloc_bytes_per_txn", "B/txn", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// Transaction types of the three workloads, for the per-type engine metrics.
var txnTypes = []string{
	"new_order", "payment", "delivery", "order_status", "stock_level",
	"new_reservation", "delete_reservation", "update_reservation", "update_customer", "find_flights", "find_open_seats",
	"readonly", "update",
}

// perLayer are the metrics of single layers, reported by the traced run.
// A layer a workload does not exercise reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		{"engine.begin_us.p50", "us", "lower", 0},
		{"engine.begin_us.p99", "us", "lower", 0},
		{"engine.execute_us.p50", "us", "lower", 0},
		{"engine.execute_us.p99", "us", "lower", 0},
		{"engine.commit_us.p50", "us", "lower", 0},
		{"engine.commit_us.p99", "us", "lower", 0},
		{"engine.attempts_per_txn", "count/txn", "lower", 0},
		{"engine.backoff_share", "ratio", "lower", 0},
		{"engine.latency_p999_us", "us", "lower", 0},
	}
	for _, typ := range txnTypes {
		d = append(d,
			metricDef{"engine." + typ + ".txn_s", "txn/s", "higher", 0},
			metricDef{"engine." + typ + ".latency_p50_us", "us", "lower", 0},
			metricDef{"engine." + typ + ".latency_p99_us", "us", "lower", 0},
		)
	}
	d = append(d, []metricDef{
		{"cc.abort_timeout_per_1k", "count/1k", "lower", 0},
		{"cc.abort_conflict_per_1k", "count/1k", "lower", 0},
		{"cc.abort_pivot_per_1k", "count/1k", "lower", 0},
		{"cc.abort_cascade_per_1k", "count/1k", "lower", 0},
		{"cc.blocked_share", "ratio", "lower", 0},
		{"cc.block_events_per_txn", "count/txn", "lower", 0},
		{"cc.top_edge_share", "ratio", "lower", 0},
		{"storage.keys", "count", "lower", 0},
		{"storage.versions_per_key", "count/key", "lower", 0},
		{"wal.batches_per_s", "1/s", "lower", 0},
		{"wal.records_per_batch", "count", "higher", 0},
		{"wal.flush_us_mean", "us", "lower", 0},
		{"wal.errors", "count", "lower", 0},
		{"wal.disk_bytes_per_user_byte", "ratio", "lower", 0},
		{"wal.checkpoint_ms.p50", "ms", "lower", 0},
		{"wal.checkpoint_ms.max", "ms", "lower", 0},
		{"wal.checkpoint_snapshot_bytes", "B", "lower", 0},
		{"wal.checkpoint_truncated_bytes", "B", "higher", 0},
		{"wal.recovery_replayed_records", "count", "lower", 0},
		{"wal.recovery_snapshot_keys", "count", "higher", 0},
	}...)
	for _, op := range rttOps {
		d = append(d,
			metricDef{"server.rtt_us." + op + ".p50", "us", "lower", 0},
			metricDef{"server.rtt_us." + op + ".p99", "us", "lower", 0},
		)
	}
	d = append(d, []metricDef{
		{"server.frames_per_txn", "count/txn", "lower", 0},
		{"server.protocol_errors", "count", "lower", 0},
		{"loadgen.lag_us.p99", "us", "lower", 0},
		{"loadgen.queue_us.p50", "us", "lower", 0},
		{"loadgen.queue_us.p99", "us", "lower", 0},
		{"runtime.gc_cpu_fraction", "ratio", "lower", 0},
		{"runtime.allocs_per_txn", "count/txn", "lower", 0},
		{"trace.overhead.throughput", "ratio", "lower", 0},
		{"trace.overhead.latency_p50", "ratio", "lower", 0},
		{"trace.overhead.latency_p99", "ratio", "lower", 0},
		// End-to-end figures that are not gated: times and rates, whose
		// run-to-run spread exceeds any allowed bound when the shared
		// machine changes speed, and the kv-served-only figures the other
		// workloads have no counterpart for. Every untraced run prints
		// them; the traced run records them from its untraced half.
		{"throughput_txn_s", "txn/s", "higher", 0},
		{"latency_p50_us", "us", "lower", 0},
		{"latency_p99_us", "us", "lower", 0},
		{"cpu_us_per_txn", "us/txn", "lower", 0},
		{"lo.latency_p50_us", "us", "lower", 0},
		{"lo.latency_p99_us", "us", "lower", 0},
		{"hi.latency_p50_us", "us", "lower", 0},
		{"hi.latency_p99_us", "us", "lower", 0},
		{"max_rate_txn_s", "txn/s", "higher", 0},
		{"recover_s", "s", "lower", 0},
		{"failed_ratio", "ratio", "lower", 0},
	}...)
	return d
}

// rttOps are the wire round trips timed on kv-served, one per frame kind.
var rttOps = []string{"begin", "get", "put", "commit_ro", "commit_rw"}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks names and units against the result format and that
// no name is used twice.
func validateDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64 characters starting with a letter or digit", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			return fmt.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			return fmt.Errorf("metric %s: better must be higher or lower, not %q", d.name, d.better)
		}
		if seen[d.name] {
			return fmt.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailCount returns how many of h's samples lie beyond its q-quantile, with
// the rank computed exactly as loadgen.Hist.Quantile computes it.
func tailCount(n uint64, q float64) uint64 {
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	return n - rank - 1
}

// quantileUS returns h's q-quantile in microseconds and whether it may be
// reported: at least minTail samples must lie beyond it.
func quantileUS(h *loadgen.Hist, q float64) (float64, bool) {
	n := h.Count()
	return us(h.Quantile(q)), tailCount(n, q) >= minTail
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windows splits a measured interval into equal parts, each with its own
// latency histogram. Reporting the median over windows keeps one stalled
// second from moving a run's figure.
type windows struct {
	width time.Duration
	hists []loadgen.Hist
}

// newWindows splits an interval of length span into n windows.
func newWindows(span time.Duration, n int) *windows {
	return &windows{width: span / time.Duration(n), hists: make([]loadgen.Hist, n)}
}

// record files a latency under the window holding offset (time since the
// interval began); offsets outside the interval are dropped.
func (w *windows) record(offset, d time.Duration) {
	if offset < 0 {
		return
	}
	if i := int(offset / w.width); i < len(w.hists) {
		w.hists[i].Record(d)
	}
}

// throughput is the median over windows of samples per second.
func (w *windows) throughput() float64 {
	vs := make([]float64, len(w.hists))
	for i := range w.hists {
		vs[i] = float64(w.hists[i].Count()) / w.width.Seconds()
	}
	return median(vs)
}

// quantileUS is the median over windows of each window's q-quantile, using
// only windows with enough samples beyond it; ok is false when none has.
func (w *windows) quantileUS(q float64) (float64, bool) {
	var vs []float64
	for i := range w.hists {
		if v, ok := quantileUS(&w.hists[i], q); ok {
			vs = append(vs, v)
		}
	}
	return median(vs), len(vs) > 0
}

// count is the number of samples over all windows.
func (w *windows) count() uint64 {
	var n uint64
	for i := range w.hists {
		n += w.hists[i].Count()
	}
	return n
}

// String lists each window's samples per second, p50 and p99.
func (w *windows) String() string {
	parts := make([]string, len(w.hists))
	for i := range w.hists {
		h := &w.hists[i]
		parts[i] = fmt.Sprintf("%.0f/s p50 %.0fus p99 %.0fus", float64(h.Count())/w.width.Seconds(), us(h.Quantile(0.5)), us(h.Quantile(0.99)))
	}
	return strings.Join(parts, "; ")
}
