package lockmgr

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func env(timeout time.Duration) *core.Env {
	return &core.Env{LockTimeout: timeout}
}

func txn(id uint64, typ string) *core.Txn {
	t := core.NewTxn(id, typ, 0, id)
	return t
}

func TestSharedLocksCompatible(t *testing.T) {
	tbl := New(env(time.Second), nil)
	k := core.K("t", "x")
	a, b := txn(1, "a"), txn(2, "b")
	if err := tbl.Acquire(a, k, Shared); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Acquire(b, k, Shared); err != nil {
		t.Fatal(err)
	}
	if !tbl.Holds(a, k) || !tbl.Holds(b, k) {
		t.Fatal("both should hold")
	}
}

func TestExclusiveBlocksAndWakes(t *testing.T) {
	tbl := New(env(time.Second), nil)
	k := core.K("t", "x")
	a, b := txn(1, "a"), txn(2, "b")
	if err := tbl.Acquire(a, k, Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- tbl.Acquire(b, k, Exclusive) }()
	select {
	case <-acquired:
		t.Fatal("b acquired while a held X")
	case <-time.After(20 * time.Millisecond):
	}
	tbl.Release(a, k)
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
	// b must now have an ordering dependency on a.
	deps := b.Deps()
	if len(deps) != 1 || deps[0].T != a {
		t.Fatalf("deps = %+v", deps)
	}
}

func TestTimeoutResolvesDeadlock(t *testing.T) {
	tbl := New(env(50*time.Millisecond), nil)
	k1, k2 := core.K("t", "1"), core.K("t", "2")
	a, b := txn(1, "a"), txn(2, "b")
	if err := tbl.Acquire(a, k1, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Acquire(b, k2, Exclusive); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var timeouts atomic.Int32
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := tbl.Acquire(a, k2, Exclusive); errors.Is(err, core.ErrTimeout) {
			timeouts.Add(1)
			tbl.Release(a, k1)
		}
	}()
	go func() {
		defer wg.Done()
		if err := tbl.Acquire(b, k1, Exclusive); errors.Is(err, core.ErrTimeout) {
			timeouts.Add(1)
			tbl.Release(b, k2)
		}
	}()
	wg.Wait()
	if timeouts.Load() == 0 {
		t.Fatal("deadlock not resolved by timeout")
	}
}

// TestWaitCycleAbortsYoungest: a cross-key deadlock (a holds k1 and wants
// k2, b holds k2 and wants k1) resolves at once, not at the lock timeout:
// the younger transaction gets a retryable conflict, whichever of the two
// closed the cycle, and the older one is granted its lock once the loser
// releases.
func TestWaitCycleAbortsYoungest(t *testing.T) {
	for _, olderClosesCycle := range []bool{false, true} {
		tbl := New(env(10*time.Second), nil) // resolution must not come from the timeout
		k1, k2 := core.K("t", "1"), core.K("t", "2")
		a, b := txn(1, "a"), txn(2, "b") // a is older
		if err := tbl.Acquire(a, k1, Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Acquire(b, k2, Exclusive); err != nil {
			t.Fatal(err)
		}
		aErr, bErr := make(chan error, 1), make(chan error, 1)
		if olderClosesCycle {
			go func() { bErr <- tbl.Acquire(b, k1, Exclusive) }()
			time.Sleep(20 * time.Millisecond)
			go func() { aErr <- tbl.Acquire(a, k2, Exclusive) }()
		} else {
			go func() { aErr <- tbl.Acquire(a, k2, Exclusive) }()
			time.Sleep(20 * time.Millisecond)
			go func() { bErr <- tbl.Acquire(b, k1, Exclusive) }()
		}
		select {
		case err := <-bErr:
			if !errors.Is(err, core.ErrConflict) {
				t.Fatalf("olderClosesCycle=%v: younger got %v, want ErrConflict", olderClosesCycle, err)
			}
		case err := <-aErr:
			t.Fatalf("olderClosesCycle=%v: older finished first with %v", olderClosesCycle, err)
		case <-time.After(5 * time.Second):
			t.Fatalf("olderClosesCycle=%v: deadlock not broken", olderClosesCycle)
		}
		tbl.Release(b, k2) // the loser aborts
		if err := <-aErr; err != nil {
			t.Fatalf("olderClosesCycle=%v: older got %v", olderClosesCycle, err)
		}
	}
}

func TestUpgrade(t *testing.T) {
	tbl := New(env(time.Second), nil)
	k := core.K("t", "x")
	a := txn(1, "a")
	if err := tbl.Acquire(a, k, Shared); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Acquire(a, k, Exclusive); err != nil {
		t.Fatal(err)
	}
	b := txn(2, "b")
	errCh := make(chan error, 1)
	go func() { errCh <- tbl.Acquire(b, k, Shared) }()
	select {
	case <-errCh:
		t.Fatal("S granted against upgraded X")
	case <-time.After(20 * time.Millisecond):
	}
	tbl.Release(a, k)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeDeadlock: two shared holders both requesting the upgrade is the
// classic unresolvable S->X deadlock — each waits for the other's S to go
// away. The table must kill the younger upgrader immediately with a
// retryable conflict (NOT let both burn the full lock timeout: under
// retry-loop clients that path livelocks — both time out together, re-read,
// and re-deadlock). Once the loser releases its Shared hold, the older
// upgrader's X must be granted.
func TestUpgradeDeadlock(t *testing.T) {
	tbl := New(env(10*time.Second), nil) // huge timeout: resolution must NOT come from it
	k := core.K("t", "x")
	a, b := txn(1, "a"), txn(2, "b") // a is older (smaller ID)
	if err := tbl.Acquire(a, k, Shared); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Acquire(b, k, Shared); err != nil {
		t.Fatal(err)
	}
	aErr := make(chan error, 1)
	go func() { aErr <- tbl.Acquire(a, k, Exclusive) }()
	// The younger upgrader must die quickly whether it joins before or
	// after the older one sleeps.
	start := time.Now()
	err := tbl.Acquire(b, k, Exclusive)
	if !errors.Is(err, core.ErrConflict) {
		t.Fatalf("younger upgrader got %v, want ErrConflict", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("upgrade deadlock took %v to resolve, want immediate kill", d)
	}
	tbl.Release(b, k) // loser aborts, dropping its Shared hold
	if err := <-aErr; err != nil {
		t.Fatalf("older upgrader failed: %v", err)
	}
	if !tbl.Holds(a, k) {
		t.Fatal("winner does not hold the lock")
	}
	// Drain: after the winner releases, a fresh transaction gets X
	// immediately (no residual owners, waiters, or upgrade marks).
	tbl.Release(a, k)
	c := txn(3, "c")
	if err := tbl.Acquire(c, k, Exclusive); err != nil {
		t.Fatalf("lock not clean after upgrade deadlock: %v", err)
	}
}

// TestUpgradeAfterPeerReleases: the successful upgrade path — the other
// shared holder releases, the upgrade completes, and the upgrader ends up
// with a single Exclusive hold that still blocks new readers.
func TestUpgradeAfterPeerReleases(t *testing.T) {
	tbl := New(env(time.Second), nil)
	k := core.K("t", "x")
	a, b := txn(1, "a"), txn(2, "b")
	if err := tbl.Acquire(a, k, Shared); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Acquire(b, k, Shared); err != nil {
		t.Fatal(err)
	}
	upgraded := make(chan error, 1)
	go func() { upgraded <- tbl.Acquire(a, k, Exclusive) }()
	select {
	case err := <-upgraded:
		t.Fatalf("upgrade granted against a live S holder: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	tbl.Release(b, k)
	if err := <-upgraded; err != nil {
		t.Fatal(err)
	}
	// The upgrader waited on b: dependency recorded.
	deps := a.Deps()
	if len(deps) != 1 || deps[0].T != b {
		t.Fatalf("deps = %+v, want [b]", deps)
	}
	// A new reader must block against the upgraded X.
	c := txn(3, "c")
	got := make(chan error, 1)
	go func() { got <- tbl.Acquire(c, k, Shared) }()
	select {
	case err := <-got:
		t.Fatalf("S granted against upgraded X: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	tbl.Release(a, k)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

// TestReleaseWakesAllSharedWaiters: one X release must wake every queued
// reader, not just one — shared waiters are mutually compatible and must be
// admitted together.
func TestReleaseWakesAllSharedWaiters(t *testing.T) {
	tbl := New(env(2*time.Second), nil)
	k := core.K("t", "x")
	w := txn(1, "w")
	if err := tbl.Acquire(w, k, Exclusive); err != nil {
		t.Fatal(err)
	}
	const readers = 8
	var wg sync.WaitGroup
	var granted atomic.Int32
	started := make(chan struct{}, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			started <- struct{}{}
			if err := tbl.Acquire(txn(10+id, "r"), k, Shared); err == nil {
				granted.Add(1)
			}
		}(uint64(i))
	}
	for i := 0; i < readers; i++ {
		<-started
	}
	time.Sleep(20 * time.Millisecond) // let the readers reach the wait
	tbl.Release(w, k)
	wg.Wait()
	if granted.Load() != readers {
		t.Fatalf("only %d/%d shared waiters woken by one X release", granted.Load(), readers)
	}
}

func TestNexusExemption(t *testing.T) {
	// Exempt pairs with equal types: same-child stand-in.
	tbl := New(env(30*time.Millisecond), func(x, y *core.Txn) bool { return x.Type == y.Type })
	k := core.K("t", "x")
	a1, a2, b := txn(1, "g1"), txn(2, "g1"), txn(3, "g2")
	if err := tbl.Acquire(a1, k, Exclusive); err != nil {
		t.Fatal(err)
	}
	// Same group: no conflict even X-X.
	if err := tbl.Acquire(a2, k, Exclusive); err != nil {
		t.Fatalf("nexus exemption failed: %v", err)
	}
	// Different group: conflicts.
	if err := tbl.Acquire(b, k, Shared); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
}

func TestReleaseAllAndReacquire(t *testing.T) {
	tbl := New(env(time.Second), nil)
	a := txn(1, "a")
	keys := []core.Key{core.K("t", "1"), core.K("t", "2"), core.K("t", "3")}
	for _, k := range keys {
		if err := tbl.Acquire(a, k, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	tbl.ReleaseAll(a, keys)
	for _, k := range keys {
		if tbl.Holds(a, k) {
			t.Fatal("still held after ReleaseAll")
		}
	}
	b := txn(2, "b")
	for _, k := range keys {
		if err := tbl.Acquire(b, k, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentStress(t *testing.T) {
	tbl := New(env(2*time.Second), nil)
	k := core.K("t", "hot")
	var counter int64 // protected by the X lock, not atomics
	var wg sync.WaitGroup
	const workers, iters = 16, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tx := txn(base*1000+uint64(i), "w")
				if err := tbl.Acquire(tx, k, Exclusive); err != nil {
					t.Error(err)
					return
				}
				counter++
				tbl.Release(tx, k)
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("lost updates: %d != %d (mutual exclusion broken)", counter, workers*iters)
	}
}

func TestBlockEventReported(t *testing.T) {
	rep := &captureReporter{}
	e := env(time.Second)
	e.Reporter = rep
	tbl := New(e, nil)
	k := core.K("t", "x")
	a, b := txn(1, "A"), txn(2, "B")
	tbl.Acquire(a, k, Exclusive)
	go func() {
		time.Sleep(30 * time.Millisecond)
		tbl.Release(a, k)
	}()
	if err := tbl.Acquire(b, k, Exclusive); err != nil {
		t.Fatal(err)
	}
	evs := rep.events()
	if len(evs) == 0 {
		t.Fatal("no block event reported")
	}
	ev := evs[0]
	if ev.BlockedType != "B" || ev.BlockerType != "A" {
		t.Fatalf("event %+v", ev)
	}
	if ev.End.Sub(ev.Start) < 20*time.Millisecond {
		t.Fatalf("blocked interval too short: %v", ev.End.Sub(ev.Start))
	}
}

type captureReporter struct {
	mu  sync.Mutex
	evs []core.BlockEvent
}

func (c *captureReporter) ReportBlock(ev core.BlockEvent) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *captureReporter) events() []core.BlockEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]core.BlockEvent(nil), c.evs...)
}
