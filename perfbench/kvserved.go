package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/tebaldi"
)

// kv-served: an open loop over TCP loopback into an in-process server, on
// the key-value schema tebaldi-server registers, with synchronous group
// commit and periodic checkpoints.
const (
	kvKeys          = 100000
	kvValueLen      = 100
	kvUpdatePercent = 20
	loRate          = 1000.0 // txn/s
	hiRate          = 3000.0 // txn/s
	// checkpointEvery is the number of committed updates between
	// checkpoints. At --seconds 30 about 1600 updates precede hi and 6100
	// end it, so lo sees no checkpoint and hi sees exactly two, well clear
	// of its end.
	checkpointEvery = 2500
	p99Limit        = 100 * time.Millisecond
	searchFactor    = 1.25 // coarse step of the max-rate search
	searchPrecision = 1.03 // the search stops once pass and fail rates are this close
	maxSearchSteps  = 8
	// minWindowArrivals keeps at least minTail samples beyond a window's p99.
	minWindowArrivals = 1500
)

// kvSpecs is the schema of tebaldi-server: "update" and "readonly"
// transactions over table kv, on the §5.2 starting tree.
func kvSpecs() []*tebaldi.Spec {
	return []*tebaldi.Spec{
		{Name: "update", Tables: []string{"kv"}, WriteTables: []string{"kv"}},
		{Name: "readonly", ReadOnly: true, Tables: []string{"kv"}},
	}
}

// kvRows are the row names tebaldi-server's -preload uses: k0 … k99999.
var kvRows = func() []string {
	rows := make([]string, kvKeys)
	for i := range rows {
		rows[i] = fmt.Sprintf("k%d", i)
	}
	return rows
}()

// kvServed is a running server with its database and client connections.
type kvServed struct {
	opts      tebaldi.Options
	db        *tebaldi.DB
	srv       *server.Server
	serveDone chan error
	clients   []*server.Client
	sessions  []*server.Sess
}

// setupKV opens a durable database, preloads it, serves it on loopback and
// dials p.clients connections.
func setupKV(p params, dir string, profiling bool) (*kvServed, error) {
	opts := dbOptions()
	opts.DurabilityDir = dir
	opts.DurabilitySync = true
	opts.GCPEpoch = 100 * time.Millisecond
	opts.Profiling = profiling
	db, err := tebaldi.Open(opts, kvSpecs(), nil)
	if err != nil {
		return nil, err
	}
	k := &kvServed{opts: opts, db: db, srv: server.New(db, server.Options{}), serveDone: make(chan error, 1)}
	val := bytes.Repeat([]byte{'x'}, kvValueLen)
	for _, row := range kvRows {
		db.Load(tebaldi.K("kv", row), val)
	}
	// Load bypasses the log; a checkpoint makes the preload durable, so
	// recovery has every key to restore.
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, fmt.Errorf("checkpoint after preload: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	go func() { k.serveDone <- k.srv.Serve(ln) }()
	for i := 0; i < p.clients; i++ {
		c, err := server.Dial(ln.Addr().String())
		if err != nil {
			k.stopServing()
			db.Close()
			return nil, err
		}
		k.clients = append(k.clients, c)
		k.sessions = append(k.sessions, c.Session())
	}
	return k, nil
}

// stopServing closes the client connections and shuts the server down.
func (k *kvServed) stopServing() error {
	for _, c := range k.clients {
		c.Close()
	}
	k.clients = nil
	err := k.srv.Shutdown(5 * time.Second)
	<-k.serveDone
	return err
}

// checkpointer calls DB.Checkpoint after every checkpointEvery committed
// updates, on its own goroutine so no client waits for it.
type checkpointer struct {
	db      *tebaldi.DB
	updates atomic.Uint64
	kick    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	buf     *spanBuf
	times   loadgen.Hist
	err     error // first failure; read after halt
}

func startCheckpointer(db *tebaldi.DB, buf *spanBuf) *checkpointer {
	c := &checkpointer{db: db, kick: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{}), buf: buf}
	go c.loop()
	return c
}

func (c *checkpointer) loop() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
			t0 := time.Now()
			err := c.db.Checkpoint()
			end := time.Now()
			id := c.buf.newID()
			c.buf.add(id, 0, id, kCheckpoint, t0, end)
			c.times.Record(end.Sub(t0))
			if err != nil && c.err == nil {
				c.err = err
			}
		}
	}
}

// committedUpdate counts one committed update and requests a checkpoint
// every checkpointEvery of them.
func (c *checkpointer) committedUpdate() {
	if c.updates.Add(1)%checkpointEvery == 0 {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
}

// halt stops the checkpointer and waits for it to exit.
func (c *checkpointer) halt() {
	close(c.stop)
	<-c.done
}

// kvWorker is one connection's client: its session and random sources.
type kvWorker struct {
	sess    *server.Sess
	inputs  *rand.Rand
	backoff *rand.Rand
	buf     *spanBuf
	labels  [2]uint16 // readonly, update
	value   []byte
}

// txn runs one logical transaction: a single-key read, or a read-modify-
// write of one key with a 100-byte value, retried with engine.RunTxn's
// backoff on retryable aborts. Spans go under the arrival span `parent`.
func (w *kvWorker) txn(parent uint64) (update bool, err error) {
	row := kvRows[w.inputs.Intn(kvKeys)]
	update = w.inputs.Intn(100) < kvUpdatePercent
	if update {
		for i := 0; i+8 <= len(w.value); i += 8 {
			binary.LittleEndian.PutUint64(w.value[i:], w.inputs.Uint64())
		}
	}
	for attempt := 0; ; attempt++ {
		err = w.attempt(parent, row, update)
		if err == nil || !tebaldi.IsRetryable(err) {
			return update, err
		}
		max := 200 * (attempt + 1)
		if max > 5000 {
			max = 5000
		}
		t0 := time.Now()
		time.Sleep(time.Duration(w.backoff.Intn(max)+50) * time.Microsecond)
		w.buf.add(w.buf.newID(), parent, parent, kBackoff, t0, time.Now())
	}
}

// attempt sends one BEGIN … COMMIT, one frame per operation, and records
// one RTT span per frame.
func (w *kvWorker) attempt(parent uint64, row string, update bool) error {
	typ, commit := "readonly", kRTTCommitRO
	if update {
		typ, commit = "update", kRTTCommitRW
	}
	t0 := time.Now()
	err := w.sess.Begin(typ, 0)
	t1 := w.rtt(parent, kRTTBegin, t0)
	if err != nil {
		return err
	}
	_, _, err = w.sess.Get("kv", row)
	t2 := w.rtt(parent, kRTTGet, t1)
	if err != nil {
		return err
	}
	if update {
		err = w.sess.Put("kv", row, w.value)
		t2 = w.rtt(parent, kRTTPut, t2)
		if err != nil {
			return err
		}
	}
	err = w.sess.Commit()
	w.rtt(parent, commit, t2)
	return err
}

// rtt records a frame's round trip from t0 and returns its end.
func (w *kvWorker) rtt(parent uint64, kind spanKind, t0 time.Time) time.Time {
	now := time.Now()
	w.buf.add(w.buf.newID(), parent, parent, kind, t0, now)
	return now
}

// openLoop drives one open-loop phase through loadgen.Run: count arrivals
// at rate over the p.clients connections. Latency is measured from each
// arrival's intended send time; win (optional) files it by intended time.
type openLoop struct {
	workers  []*kvWorker
	ck       *checkpointer
	arrivals atomic.Uint64 // over every phase, warm-up and search included
	failed   atomic.Uint64
	commits  atomic.Uint64
	errMu    sync.Mutex
	errs     []string
}

func (o *openLoop) drive(rate float64, dur time.Duration, win *windows) (*loadgen.Report, *lagClock, error) {
	count := int(rate * dur.Seconds())
	o.arrivals.Add(uint64(count))
	clock := newLagClock(loadgen.RealClock{}, count)
	rep, err := loadgen.Run(loadgen.Options{Workers: len(o.workers), Rate: rate, Count: count, Clock: clock},
		func(wi int) (loadgen.Exec, error) {
			w := o.workers[wi]
			return func(i int) error {
				intended := clock.Intended(i)
				started := time.Now()
				aid := w.buf.newID()
				w.buf.add(w.buf.newID(), aid, aid, kQueue, intended, started)
				update, err := w.txn(aid)
				end := time.Now()
				w.buf.add(aid, 0, aid, kArrival, intended, end)
				if update {
					w.buf.setLast(w.labels[1], 0)
				} else {
					w.buf.setLast(w.labels[0], 0)
				}
				if err != nil {
					o.fail(err)
					return err
				}
				o.commits.Add(1)
				if update {
					o.ck.committedUpdate()
				}
				if win != nil {
					win.record(intended.Sub(clock.Intended(0)), end.Sub(intended))
				}
				return nil
			}, nil
		})
	return rep, clock, err
}

// fail counts a transaction that ended in an error and keeps the first few.
func (o *openLoop) fail(err error) {
	o.failed.Add(1)
	o.errMu.Lock()
	defer o.errMu.Unlock()
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

// passes reports whether a phase met the latency limit without a growing
// backlog: p99 within p99Limit, no failures, and the last arrival done
// within p99Limit of the end of the schedule.
func passes(rep *loadgen.Report, rate float64, count int) bool {
	scheduled := time.Duration(float64(count-1) / rate * float64(time.Second))
	return rep.Failed == 0 && rep.P99 <= p99Limit && rep.Elapsed-scheduled <= p99Limit
}

// capacity runs the connections closed loop for dur, each sending its next
// transaction as soon as the last one commits, and returns the committed
// rate: the median over windows of txn/s.
func (o *openLoop) capacity(dur time.Duration) float64 {
	win := newWindows(dur, numWindows)
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range o.workers {
		wg.Add(1)
		go func(w *kvWorker) {
			defer wg.Done()
			for time.Since(start) < dur {
				o.arrivals.Add(1)
				if _, err := w.txn(0); err != nil {
					o.fail(err)
					continue
				}
				end := time.Now()
				win.record(end.Sub(start), 0)
			}
		}(w)
	}
	wg.Wait()
	return win.throughput()
}

// searchMaxRate bisects (geometrically) between a passing and a failing
// offered rate until they are within searchPrecision, and returns the
// highest passing rate. With no passing rate known it first steps down from
// fail by searchFactor.
func (o *openLoop) searchMaxRate(step time.Duration, pass, fail float64, notes *[]string) (float64, error) {
	for steps := 0; steps < maxSearchSteps && fail/pass > searchPrecision; steps++ {
		rate := fail / searchFactor
		if pass > 0 {
			rate = math.Sqrt(pass * fail)
		}
		rep, _, err := o.drive(rate, step, nil)
		if err != nil {
			return 0, err
		}
		ok := passes(rep, rate, int(rate*step.Seconds()))
		*notes = append(*notes, fmt.Sprintf("kv: step %.0f txn/s: p99 %v, elapsed %v, pass %v", rate, rep.P99, rep.Elapsed.Round(time.Millisecond), ok))
		if ok {
			pass = rate
		} else {
			fail = rate
		}
	}
	return pass, nil
}

// runKV measures one kv-served phase. The untraced phase runs lo, hi, the
// capacity phase and the max-rate search; the traced phase runs lo and hi
// with spans. Both end with Close, Recover and the recovered-state check.
func runKV(p params, tr *tracer, setups int) (*phaseResult, error) {
	base := filepath.Join(p.out, fmt.Sprintf("kv-%d", os.Getpid()))
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var k *kvServed
	var dir string
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		dir = filepath.Join(base, fmt.Sprint(i))
		runtime.GC()
		t0 := time.Now()
		var err error
		if k, err = setupKV(p, dir, tr != nil); err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := k.stopServing(); err != nil {
				return nil, err
			}
			if err := k.db.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	db := k.db

	o := &openLoop{ck: startCheckpointer(db, tr.buf())}
	for i, sess := range k.sessions {
		w := &kvWorker{
			sess:    sess,
			inputs:  rand.New(rand.NewSource(p.streamSeed(streamInputs, i))),
			backoff: rand.New(rand.NewSource(p.streamSeed(streamBackoff, i))),
			buf:     tr.buf(),
			value:   make([]byte, kvValueLen),
		}
		if tr != nil {
			w.labels = [2]uint16{tr.label("readonly"), tr.label("update")}
		}
		o.workers = append(o.workers, w)
	}

	total := time.Duration(p.seconds) * time.Second
	warmup, loDur, hiDur, capDur, step := total/10, total/6, total/4, total/5, total/20
	if _, _, err := o.drive(loRate, warmup, nil); err != nil {
		return nil, err
	}
	dirBefore := dirSize(dir)
	before := readRunStats(db)
	srvBefore := k.srv.Metrics().FramesRead.Load()
	commitsBefore := o.commits.Load()
	updatesBefore := o.ck.updates.Load()
	phaseStart := time.Now()

	loWin := newWindows(loDur, phaseWindows(loRate, loDur))
	loRep, _, err := o.drive(loRate, loDur, loWin)
	if err != nil {
		return nil, err
	}
	hiWin := newWindows(hiDur, phaseWindows(hiRate, hiDur))
	hiRep, hiClock, err := o.drive(hiRate, hiDur, hiWin)
	if err != nil {
		return nil, err
	}
	phaseEnd := time.Now()
	// Capacity and the max-rate search run with the checkpointer stopped: a
	// checkpoint's stall inside a short step would decide pass or fail by
	// where it lands, not by the offered rate. Checkpoint stalls show in
	// hi.* instead. Halting first also lets a running checkpoint finish, so
	// its allocations and CPU fall inside the measured interval.
	o.ck.halt()
	after := readRunStats(db)
	dirAfter := dirSize(dir)
	phaseCommits := o.commits.Load() - commitsBefore
	phaseUpdates := o.ck.updates.Load() - updatesBefore
	framesRead := k.srv.Metrics().FramesRead.Load() - srvBefore

	r := &phaseResult{e2e: map[string]float64{}, samples: loWin.count() + hiWin.count()}
	r.e2e["setup_s"] = median(setupTimes)
	r.e2e["alloc_bytes_per_txn"] = perTxn(after.allocBytes-before.allocBytes, phaseCommits)
	r.e2e["cpu_us_per_txn"] = cpuPerTxn(before, after, phaseCommits)
	for _, ph := range []struct {
		name string
		win  *windows
	}{{"lo", loWin}, {"hi", hiWin}} {
		p50, ok50 := ph.win.quantileUS(0.50)
		p99, ok99 := ph.win.quantileUS(0.99)
		if !ok50 || !ok99 {
			r.notes = append(r.notes, fmt.Sprintf("kv: too few samples in %s windows", ph.name))
		}
		r.e2e[ph.name+".latency_p50_us"] = p50
		r.e2e[ph.name+".latency_p99_us"] = p99
	}
	r.e2e["latency_p50_us"] = r.e2e["lo.latency_p50_us"]
	r.e2e["latency_p99_us"] = r.e2e["lo.latency_p99_us"]
	r.notes = append(r.notes, fmt.Sprintf("kv: lo %s", loRep), fmt.Sprintf("kv: hi %s", hiRep),
		"kv: lo windows: "+loWin.String(), "kv: hi windows: "+hiWin.String())

	if tr == nil {
		capRate := o.capacity(capDur)
		pass := 0.0
		if passes(hiRep, hiRate, int(hiRate*hiDur.Seconds())) {
			pass = hiRate
		}
		maxRate, err := o.searchMaxRate(step, pass, max(capRate, hiRate), &r.notes)
		if err != nil {
			return nil, err
		}
		r.e2e["throughput_txn_s"] = capRate
		r.e2e["max_rate_txn_s"] = maxRate
	}
	r.attempted = o.arrivals.Load()
	r.failed = o.failed.Load()
	r.notes = append(r.notes, o.errs...)

	// Committed state before Close, to compare with what Recover restores.
	want := make([][]byte, kvKeys)
	for i, row := range kvRows {
		want[i] = db.ReadCommitted(tebaldi.K("kv", row))
	}
	protocolErrors := k.srv.Metrics().ProtocolErrors.Load()
	if err := k.stopServing(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	if tr != nil {
		r.layer = engineLayer(before, after)
		events := db.Engine().Profiler().Window()
		r.notes = append(r.notes, addEdgeMetrics(r.layer, events))
		addStorageMetrics(r.layer, db)
		r.layer["runtime.allocs_per_txn"] = perTxn(after.mallocs-before.mallocs, phaseCommits)
		r.layer["server.frames_per_txn"] = perTxn(framesRead, phaseCommits)
		r.layer["server.protocol_errors"] = float64(protocolErrors)
		if v, ok := quantileUS(&hiClock.lag, 0.99); ok {
			r.layer["loadgen.lag_us.p99"] = v
		}
		userBytes := phaseUpdates * kvValueLen
		written := float64(after.eng.CheckpointTruncatedBytes-before.eng.CheckpointTruncatedBytes) + float64(dirAfter-dirBefore)
		if userBytes > 0 {
			r.layer["wal.disk_bytes_per_user_byte"] = written / float64(userBytes)
		}
		ck := &o.ck.times
		// A bucket midpoint can sit above the exact maximum of few samples.
		r.layer["wal.checkpoint_ms.p50"] = float64(min(ck.Quantile(0.5), ck.Max())) / float64(time.Millisecond)
		r.layer["wal.checkpoint_ms.max"] = float64(ck.Max()) / float64(time.Millisecond)
		r.notes = append(r.notes, fmt.Sprintf("kv: %d checkpoints during the run", ck.Count()))
		r.layer["wal.checkpoint_snapshot_bytes"] = float64(after.eng.CheckpointSnapshotBytes)
		r.layer["wal.checkpoint_truncated_bytes"] = float64(after.eng.CheckpointTruncatedBytes - before.eng.CheckpointTruncatedBytes)
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	opts := k.opts
	opts.Profiling = false
	t0 := time.Now()
	rdb, st, err := tebaldi.Recover(opts, kvSpecs(), nil)
	recoverEnd := time.Now()
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	r.e2e["recover_s"] = recoverEnd.Sub(t0).Seconds()
	r.checkErr = checkRecovered(rdb, want, protocolErrors, o.ck.err)
	if err := rdb.Close(); err != nil {
		return nil, fmt.Errorf("close recovered: %w", err)
	}
	if tr != nil {
		b := tr.buf()
		id := b.newID()
		b.add(id, 0, id, kRecover, t0, recoverEnd)
		r.layer["wal.recovery_replayed_records"] = float64(st.Replayed)
		r.layer["wal.recovery_snapshot_keys"] = float64(st.SnapshotKeys)
		r.spans = tr.spans()
		addSpanMetrics(r.layer, tr, r.spans, tr.ns(phaseStart), tr.ns(phaseEnd))
	}
	return r, nil
}

// phaseWindows is how many windows a phase is split into: numWindows, or
// fewer so each holds at least minWindowArrivals arrivals.
func phaseWindows(rate float64, dur time.Duration) int {
	n := int(rate * dur.Seconds() / minWindowArrivals)
	return max(1, min(n, numWindows))
}

// checkRecovered compares every key after Recover with its committed value
// before Close, and fails on protocol or checkpoint errors.
func checkRecovered(db *tebaldi.DB, want [][]byte, protocolErrors uint64, ckErr error) error {
	if protocolErrors != 0 {
		return fmt.Errorf("kv: %d protocol errors", protocolErrors)
	}
	if ckErr != nil {
		return fmt.Errorf("kv: checkpoint: %w", ckErr)
	}
	bad := 0
	first := ""
	for i, row := range kvRows {
		if got := db.ReadCommitted(tebaldi.K("kv", row)); !bytes.Equal(got, want[i]) {
			if bad == 0 {
				first = row
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("kv: %d of %d keys differ after recovery (first: %s)", bad, kvKeys, first)
	}
	return nil
}

// dirSize is the total size of the files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
