// Command perfbench is the repository benchmark. It drives one workload —
// TPC-C or SEATS in process, or a durable key-value store served over TCP —
// checks the workload's output, and prints every end-to-end metric by name
// with its unit. With --trace 1 it repeats the workload with spans around
// every call into a layer and reports the per-layer metrics instead. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload tpcc --seed 1 --seconds 30 --trace 0
//
// Workloads and metrics are described in LAYERS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// params are one run's settings.
type params struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for WAL files and traces
	clients  int    // client goroutines and connections: nproc
}

// Seed streams: every random source a run uses is derived from the
// workload seed, a stream and a client index.
const (
	streamInputs = iota + 1
	streamBackoff
)

// streamSeed derives a client's rng seed (splitmix64 of the three parts).
func (p params) streamSeed(stream, client int) int64 {
	z := uint64(p.seed)*0x9E3779B97F4A7C15 + uint64(stream)<<32 + uint64(client)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

// numWindows is how many equal parts a measured interval is split into;
// end-to-end figures are medians over them.
const numWindows = 10

// phaseResult is what one measured phase of a workload produced.
type phaseResult struct {
	e2e       map[string]float64 // end-to-end figures by name
	layer     map[string]float64 // per-layer figures (traced phases only)
	attempted uint64
	failed    uint64
	samples   uint64 // latency samples behind the end-to-end percentiles
	checkErr  error
	notes     []string
	spans     []span
}

// workload runs one phase; tr is nil when tracing is off, and setups is how
// many times the database is set up (the last one is measured).
type workload func(p params, tr *tracer, setups int) (*phaseResult, error)

var workloads = map[string]workload{
	"tpcc": func(p params, tr *tracer, setups int) (*phaseResult, error) {
		return runClosed(p, openTPCC, tr, setups)
	},
	"seats": func(p params, tr *tracer, setups int) (*phaseResult, error) {
		return runClosed(p, openSEATS, tr, setups)
	},
	"kv-served": runKV,
}

// setupRepeats is how often an untraced run sets its database up; setup_s
// is the median.
var setupRepeats = map[string]int{"tpcc": 9, "seats": 9, "kv-served": 3}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "tpcc, seats or kv-served")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed; every client rng derives from it")
	flag.IntVar(&p.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&p.out, "out", ".bench_build", "directory for WAL files and traces")
	flag.Parse()
	p.trace = trace == 1
	p.clients = runtime.NumCPU()

	res, err := run(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(p params) (*result, error) {
	wl, ok := workloads[p.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (tpcc, seats, kv-served)", p.workload)
	}
	if p.seconds < 1 || p.seconds > 60 {
		return nil, fmt.Errorf("--seconds %d out of range 1..60", p.seconds)
	}
	if err := validateDefs(append(append([]metricDef(nil), endToEnd...), perLayer...)); err != nil {
		return nil, err
	}
	var err error
	if p.out, err = filepath.Abs(p.out); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return nil, err
	}
	header, err := json.Marshal(map[string]any{
		"workload": p.workload, "seed": p.seed, "seconds": p.seconds, "trace": p.trace,
		"clients": p.clients, "env": environment(p.out),
	})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(header))

	u, err := wl(p, nil, setupRepeats[p.workload])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.workload, err)
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	tally(res, u)
	printPhase("untraced", u)
	if !p.trace {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{u.e2e[d.name], d.unit}
		}
		return res, finite(res)
	}

	tr := newTracer()
	t, err := wl(p, tr, 1)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", p.workload, err)
	}
	tally(res, t)
	printPhase("traced", t)
	layer := t.layer
	overhead := func(name, metric string, lowerBetter bool) {
		base, traced := u.e2e[metric], t.e2e[metric]
		if base == 0 || traced == 0 {
			return
		}
		if lowerBetter {
			layer[name] = traced/base - 1
		} else {
			layer[name] = base/traced - 1
		}
	}
	overhead("trace.overhead.throughput", "throughput_txn_s", false)
	overhead("trace.overhead.latency_p50", "latency_p50_us", true)
	overhead("trace.overhead.latency_p99", "latency_p99_us", true)
	for _, name := range []string{"throughput_txn_s", "latency_p50_us", "latency_p99_us", "cpu_us_per_txn",
		"lo.latency_p50_us", "lo.latency_p99_us", "hi.latency_p50_us", "hi.latency_p99_us",
		"max_rate_txn_s", "recover_s", "failed_ratio"} {
		layer[name] = u.e2e[name]
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{layer[d.name], d.unit}
	}
	traceFile := filepath.Join(p.out, "trace-"+p.workload+".csv")
	if err := writeSpans(traceFile, tr, t.spans); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: %d spans written to %s\n", len(t.spans), traceFile)
	return res, finite(res)
}

// tally folds a phase's counts and output check into the result. A failed
// check fails the run and counts as one failed transaction.
func tally(res *result, r *phaseResult) {
	res.Attempted += r.attempted
	res.Failed += r.failed
	if r.checkErr != nil {
		res.Correct = false
		res.Failed++
	}
	r.e2e["failed_ratio"] = perTxn(res.Failed, res.Attempted)
}

// printPhase prints a phase's end-to-end figures, one per line with its
// unit, then its check outcome and notes.
func printPhase(label string, r *phaseResult) {
	names := make([]string, 0, len(r.e2e))
	for name := range r.e2e {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s metric %-22s %14.4f %s\n", label, name, r.e2e[name], unitOf(name))
	}
	fmt.Printf("%s attempted %d failed %d latency_samples %d\n", label, r.attempted, r.failed, r.samples)
	if r.checkErr != nil {
		fmt.Printf("%s check FAILED: %v\n", label, r.checkErr)
	} else {
		fmt.Printf("%s check passed\n", label)
	}
	for _, n := range r.notes {
		fmt.Printf("%s note: %s\n", label, n)
	}
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// finite rejects NaN and infinite values, which JSON cannot carry.
func finite(res *result) error {
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}
