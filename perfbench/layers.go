package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/profiler"
	"repro/tebaldi"
)

// runStats is a point-in-time reading of the engine counters and the Go
// runtime, taken at the edges of a measured interval.
type runStats struct {
	eng        engine.Snapshot
	allocBytes uint64
	mallocs    uint64
	cpu        float64 // seconds of CPU the process used (user + system)
	gcCPU      float64 // seconds of CPU spent in the garbage collector
	totalCPU   float64 // seconds of CPU available to the process
}

func readRunStats(db *tebaldi.DB) runStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	s := runStats{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	if db != nil {
		s.eng = db.Stats().Snapshot()
	}
	return s
}

// cpuPerTxn is the process CPU time between two readings, in
// microseconds per transaction.
func cpuPerTxn(before, after runStats, txns uint64) float64 {
	if txns == 0 {
		return 0
	}
	return (after.cpu - before.cpu) * 1e6 / float64(txns)
}

// perTxn divides a count by a number of transactions (0 when there are none).
func perTxn(n, txns uint64) float64 {
	if txns == 0 {
		return 0
	}
	return float64(n) / float64(txns)
}

// engineLayer derives the counter-based per-layer metrics of the interval
// between two readings: abort causes per 1000 attempts (engine.Stats), the
// WAL group-commit pipeline, and the collector's share of CPU.
func engineLayer(before, after runStats) map[string]float64 {
	b, a := before.eng, after.eng
	m := map[string]float64{}
	attempts := (a.Commits - b.Commits) + (a.Aborts - b.Aborts)
	per1k := func(n uint64) float64 { return 1000 * perTxn(n, attempts) }
	m["cc.abort_timeout_per_1k"] = per1k(a.AbortTimeout - b.AbortTimeout)
	m["cc.abort_conflict_per_1k"] = per1k(a.AbortConflict - b.AbortConflict)
	m["cc.abort_pivot_per_1k"] = per1k(a.AbortPivot - b.AbortPivot)
	m["cc.abort_cascade_per_1k"] = per1k(a.AbortCascade - b.AbortCascade)

	secs := a.At.Sub(b.At).Seconds()
	batches := a.WalBatches - b.WalBatches
	if batches > 0 && secs > 0 {
		m["wal.batches_per_s"] = float64(batches) / secs
		m["wal.records_per_batch"] = perTxn(a.WalBatchRecords-b.WalBatchRecords, batches)
		m["wal.flush_us_mean"] = perTxn(a.WalFlushNs-b.WalFlushNs, batches) / 1e3
	}
	m["wal.errors"] = float64(a.WalErrors - b.WalErrors)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_fraction"] = (after.gcCPU - before.gcCPU) / cpu
	}
	return m
}

// waitSpans turns the profiler's blocking events into CC wait spans, each
// under the execute or commit span of the blocked attempt during which it
// started (or the attempt itself).
func waitSpans(tr *tracer, spans []span, events []core.BlockEvent) []span {
	attempts := map[uint64]int{}
	for i, s := range spans {
		if s.kind == kAttempt && s.txid != 0 {
			attempts[s.txid] = i
		}
	}
	children := childIndex(spans)
	b := tr.buf()
	var out []span
	for _, ev := range events {
		ai, ok := attempts[ev.BlockedID]
		if !ok {
			continue
		}
		a := spans[ai]
		start, end := tr.ns(ev.Start), tr.ns(ev.End)
		parent := a.id
		for _, ci := range children[a.id] {
			c := spans[ci]
			if (c.kind == kExecute || c.kind == kCommit) && start >= c.start && start < c.end {
				parent = c.id
			}
		}
		out = append(out, span{id: b.newID(), parent: parent, trace: a.trace, kind: kWait, start: start, end: end})
	}
	return out
}

// addEdgeMetrics records the share of blocked time on the conflict edge
// the profiler scores highest, and returns a line naming the edge.
func addEdgeMetrics(m map[string]float64, events []core.BlockEvent) string {
	scores := profiler.Scores(events)
	var total time.Duration
	for _, s := range scores {
		total += s
	}
	edge, top, ok := profiler.Bottleneck(scores)
	if !ok || total == 0 {
		m["cc.top_edge_share"] = 0
		return "cc: no blocking events over 100us"
	}
	m["cc.top_edge_share"] = float64(top) / float64(total)
	return fmt.Sprintf("cc: top conflict edge %s<->%s holds %.1f%% of %d events' blocked time",
		edge.A, edge.B, 100*float64(top)/float64(total), len(events))
}

// addStorageMetrics records the store's size at the end of a run.
func addStorageMetrics(m map[string]float64, db *tebaldi.DB) {
	st := db.Engine().Store()
	keys, versions := 0, 0
	st.ForEach(func(c *core.Chain) {
		keys++
		versions += c.Len()
	})
	m["storage.keys"] = float64(keys)
	m["storage.versions_per_key"] = perTxn(uint64(versions), uint64(keys))
}

// addSpanMetrics derives the span-based per-layer metrics from the spans
// that ended inside [from, to) (tracer nanoseconds).
func addSpanMetrics(m map[string]float64, tr *tracer, spans []span, from, to int64) {
	var byKind [numKinds]loadgen.Hist
	perType := map[uint16]*loadgen.Hist{}
	var sums [numKinds]int64
	var waitCovered int64
	children := childIndex(spans)
	for _, s := range spans {
		if s.end < from || s.end >= to {
			continue
		}
		d := time.Duration(s.dur())
		byKind[s.kind].Record(d)
		sums[s.kind] += s.dur()
		if s.kind == kTransaction || s.kind == kArrival {
			h := perType[s.label]
			if h == nil {
				h = &loadgen.Hist{}
				perType[s.label] = h
			}
			h.Record(d)
		}
		if s.kind == kExecute || s.kind == kCommit {
			var waits []span
			for _, ci := range children[s.id] {
				if spans[ci].kind == kWait {
					waits = append(waits, spans[ci])
				}
			}
			waitCovered += s.dur() - selfTime(s, waits)
		}
	}
	secs := float64(to-from) / 1e9
	q := func(name string, h *loadgen.Hist, quantile float64) {
		if v, ok := quantileUS(h, quantile); ok {
			m[name] = v
		}
	}
	for _, k := range []struct {
		name string
		kind spanKind
	}{{"begin_us", kBegin}, {"execute_us", kExecute}, {"commit_us", kCommit}} {
		q("engine."+k.name+".p50", &byKind[k.kind], 0.50)
		q("engine."+k.name+".p99", &byKind[k.kind], 0.99)
	}
	txns := byKind[kTransaction].Count()
	if txns > 0 {
		m["engine.attempts_per_txn"] = perTxn(byKind[kAttempt].Count(), txns)
		m["engine.backoff_share"] = float64(sums[kBackoff]) / float64(sums[kTransaction])
		m["cc.block_events_per_txn"] = perTxn(byKind[kWait].Count(), txns)
		if sums[kAttempt] > 0 {
			m["cc.blocked_share"] = float64(waitCovered) / float64(sums[kAttempt])
		}
		q("engine.latency_p999_us", &byKind[kTransaction], 0.999)
	}
	for label, h := range perType {
		if int(label) >= len(tr.labels) {
			continue
		}
		typ := tr.labels[label]
		m["engine."+typ+".txn_s"] = float64(h.Count()) / secs
		q("engine."+typ+".latency_p50_us", h, 0.50)
		q("engine."+typ+".latency_p99_us", h, 0.99)
	}
	for i, op := range rttOps {
		h := &byKind[kRTTBegin+spanKind(i)]
		q("server.rtt_us."+op+".p50", h, 0.50)
		q("server.rtt_us."+op+".p99", h, 0.99)
	}
	q("loadgen.queue_us.p50", &byKind[kQueue], 0.50)
	q("loadgen.queue_us.p99", &byKind[kQueue], 0.99)
}
