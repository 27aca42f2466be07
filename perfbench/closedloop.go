package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/tebaldi"
	"repro/workload/seats"
	"repro/workload/tpcc"
)

// txnOp is one generated transaction, as the workload generators build it.
type txnOp struct {
	typ  string
	part uint64
	fn   func(*tebaldi.Tx) error
}

// inProc is an opened, loaded in-process workload.
type inProc struct {
	db    *tebaldi.DB
	next  func(rng *rand.Rand) txnOp
	check func() error
}

// dbOptions are the experiment options of internal/bench: 16 shards and a
// 400 ms lock timeout.
func dbOptions() tebaldi.Options {
	return tebaldi.Options{Shards: 16, LockTimeout: 400 * time.Millisecond}
}

// openTPCC builds TPC-C with one warehouse (DefaultScale otherwise) on the
// paper's three-layer tree: SSI over {read-only} and 2PL over RP groups.
func openTPCC(opts tebaldi.Options) (*inProc, error) {
	sc := tpcc.DefaultScale()
	sc.Warehouses = 1
	db, err := tebaldi.Open(opts, tpcc.Specs(false), tpcc.ConfigTebaldi3Layer())
	if err != nil {
		return nil, err
	}
	tpcc.Load(db, sc)
	c := tpcc.NewClient(db, sc)
	return &inProc{
		db: db,
		next: func(rng *rand.Rand) txnOp {
			o := c.Mix(rng)
			return txnOp{o.Type, o.Part, o.Fn}
		},
		check: func() error { return c.Check(db) },
	}, nil
}

// openSEATS builds SEATS at DefaultScale on one TSO group per flight under
// 2PL, with SSI separating the read-only transactions.
func openSEATS(opts tebaldi.Options) (*inProc, error) {
	sc := seats.DefaultScale()
	db, err := tebaldi.Open(opts, seats.Specs(sc), seats.Config3Layer(sc))
	if err != nil {
		return nil, err
	}
	seats.Load(db, sc)
	c := seats.NewClient(db, sc)
	// Reservation ids are drawn 1, 2, ... when a new_reservation is
	// generated, so the check scans exactly the ids handed out.
	var reservations atomic.Int64
	return &inProc{
		db: db,
		next: func(rng *rand.Rand) txnOp {
			o := c.Mix(rng)
			if o.Type == seats.TxnNewReservation {
				reservations.Add(1)
			}
			return txnOp{o.Type, o.Part, o.Fn}
		},
		check: func() error { return checkSeats(db, sc, int(reservations.Load())) },
	}, nil
}

// checkSeats verifies per-flight seat conservation on a quiesced database:
// the reservations on a flight that are not cancelled must equal
// Seats − seats_left.
func checkSeats(db *tebaldi.DB, sc seats.Scale, reservations int) error {
	const cancelled = ^uint64(0)
	held := make([]uint64, sc.Flights)
	for r := 1; r <= reservations; r++ {
		row := db.ReadCommitted(tebaldi.KeyOf("reservation", r))
		if row == nil || u64At(row, 3) == cancelled {
			continue
		}
		f := u64At(row, 0)
		if f >= uint64(sc.Flights) {
			return fmt.Errorf("seats: reservation %d names flight %d of %d", r, f, sc.Flights)
		}
		held[f]++
	}
	for f := range held {
		left := u64At(db.ReadCommitted(tebaldi.KeyOf("flight", f)), 0)
		if taken := uint64(sc.Seats) - left; taken != held[f] {
			return fmt.Errorf("seats: flight %d has %d seats taken but %d live reservations", f, taken, held[f])
		}
	}
	return nil
}

// u64At decodes the i-th little-endian uint64 of a row (0 past its end).
func u64At(b []byte, i int) uint64 {
	if len(b) < (i+1)*8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b[i*8:])
}

// inProcClient is one closed-loop client goroutine's state.
type inProcClient struct {
	db      *tebaldi.DB
	inputs  *rand.Rand // transaction inputs
	backoff *rand.Rand // retry backoff, kept apart so inputs do not depend on timing
	buf     *spanBuf
	labels  map[string]uint16
	tr      *tracer
}

// run executes one logical transaction: the attempt loop of
// engine.RunTxn, with its backoff, and spans around every call into the
// engine when tracing.
func (c *inProcClient) run(op txnOp) error {
	b := c.buf
	start := time.Now()
	tid := b.newID()
	for attempt := 0; ; attempt++ {
		aid := b.newID()
		aStart := time.Now()
		tx, err := c.db.Begin(op.typ, op.part)
		t1 := time.Now()
		b.add(b.newID(), aid, tid, kBegin, aStart, t1)
		var txid uint64
		if err == nil {
			txid = tx.ID()
			err = op.fn(tx)
			t2 := time.Now()
			b.add(b.newID(), aid, tid, kExecute, t1, t2)
			if err == nil {
				err = tx.Commit()
				b.add(b.newID(), aid, tid, kCommit, t2, time.Now())
			} else {
				tx.Rollback(err)
				b.add(b.newID(), aid, tid, kRollback, t2, time.Now())
			}
		}
		aEnd := time.Now()
		b.add(aid, tid, tid, kAttempt, aStart, aEnd)
		b.setLast(0, txid)
		if err == nil || !tebaldi.IsRetryable(err) {
			if b != nil {
				b.add(tid, 0, tid, kTransaction, start, aEnd)
				b.setLast(c.label(op.typ), 0)
			}
			return err
		}
		// Randomized backoff, growing with consecutive aborts, as in
		// engine.RunTxn.
		max := 200 * (attempt + 1)
		if max > 5000 {
			max = 5000
		}
		bStart := time.Now()
		time.Sleep(time.Duration(c.backoff.Intn(max)+50) * time.Microsecond)
		b.add(b.newID(), tid, tid, kBackoff, bStart, time.Now())
	}
}

func (c *inProcClient) label(typ string) uint16 {
	l, ok := c.labels[typ]
	if !ok {
		l = c.tr.label(typ)
		c.labels[typ] = l
	}
	return l
}

// runClosed measures one closed-loop phase of an in-process workload on a
// fresh database: p.clients goroutines each run their next transaction as
// soon as the last one ends, for a warm-up and then p.seconds. tr is nil
// for the untraced phase. The database is set up `setups` times and the
// last one is measured.
func runClosed(p params, open func(tebaldi.Options) (*inProc, error), tr *tracer, setups int) (*phaseResult, error) {
	opts := dbOptions()
	opts.Profiling = tr != nil
	var w *inProc
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = open(opts); err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if k < setups-1 {
			if err := w.db.Close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
	}
	db := w.db

	measure := time.Duration(p.seconds) * time.Second
	warmup := measure / 10
	start := time.Now()
	win := newWindows(measure, numWindows)
	stopAt := start.Add(warmup + measure)

	var attempted, failed atomic.Uint64
	var errMu sync.Mutex
	var errs []string
	var wg sync.WaitGroup
	for i := 0; i < p.clients; i++ {
		c := &inProcClient{
			db:      db,
			inputs:  rand.New(rand.NewSource(p.streamSeed(streamInputs, i))),
			backoff: rand.New(rand.NewSource(p.streamSeed(streamBackoff, i))),
			buf:     tr.buf(),
			labels:  map[string]uint16{},
			tr:      tr,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !time.Now().Before(stopAt) {
					return
				}
				op := w.next(c.inputs)
				attempted.Add(1)
				t0 := time.Now()
				err := c.run(op)
				end := time.Now()
				if err != nil {
					failed.Add(1)
					errMu.Lock()
					if len(errs) < 5 {
						errs = append(errs, fmt.Sprintf("%s: %v", op.typ, err))
					}
					errMu.Unlock()
					continue
				}
				win.record(end.Sub(start)-warmup, end.Sub(t0))
			}
		}()
	}
	time.Sleep(time.Until(start.Add(warmup)))
	before := readRunStats(db)
	wg.Wait()
	after := readRunStats(db)

	r := &phaseResult{
		e2e:       map[string]float64{},
		attempted: attempted.Load(),
		failed:    failed.Load(),
		notes:     errs,
	}
	r.e2e["setup_s"] = median(setupTimes)
	r.notes = append(r.notes, "windows: "+win.String())
	r.e2e["throughput_txn_s"] = win.throughput()
	p50, ok50 := win.quantileUS(0.50)
	p99, ok99 := win.quantileUS(0.99)
	if !ok50 || !ok99 {
		r.notes = append(r.notes, fmt.Sprintf("too few commits (%d) for per-window percentiles", win.count()))
	}
	r.e2e["latency_p50_us"] = p50
	r.e2e["latency_p99_us"] = p99
	commits := win.count()
	r.e2e["alloc_bytes_per_txn"] = perTxn(after.allocBytes-before.allocBytes, commits)
	r.e2e["cpu_us_per_txn"] = cpuPerTxn(before, after, commits)
	r.samples = commits

	r.checkErr = w.check()
	if tr != nil {
		r.layer = engineLayer(before, after)
		events := db.Engine().Profiler().Window()
		spans := tr.spans()
		r.spans = append(spans, waitSpans(tr, spans, events)...)
		addSpanMetrics(r.layer, tr, r.spans, tr.ns(start.Add(warmup)), tr.ns(stopAt))
		r.notes = append(r.notes, addEdgeMetrics(r.layer, events))
		addStorageMetrics(r.layer, db)
		r.layer["runtime.allocs_per_txn"] = perTxn(after.mallocs-before.mallocs, commits)
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return r, nil
}
