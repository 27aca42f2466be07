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

// sharedHolders grants Shared on k to n fresh transactions with IDs 1..n.
func sharedHolders(t *testing.T, tbl *Table, k core.Key, n int) []*core.Txn {
	t.Helper()
	out := make([]*core.Txn, n)
	for i := range out {
		out[i] = txn(uint64(i+1), "r")
		if err := tbl.Acquire(out[i], k, Shared); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestManySharedHolders: the owner list holds two entries inline; a third
// and fourth Shared holder spill it to the heap without losing anyone, and
// a writer still conflicts with the whole set.
func TestManySharedHolders(t *testing.T) {
	tbl := New(env(30*time.Millisecond), nil)
	k := core.K("t", "x")
	rs := sharedHolders(t, tbl, k, 4)
	for i, r := range rs {
		if !tbl.Holds(r, k) {
			t.Fatalf("holder %d lost its Shared hold", i)
		}
	}
	w := txn(9, "w")
	if err := tbl.Acquire(w, k, Exclusive); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("X against four S holders: got %v, want ErrTimeout", err)
	}
	for _, r := range rs {
		tbl.Release(r, k)
	}
	if err := tbl.Acquire(w, k, Exclusive); err != nil {
		t.Fatalf("X after every S released: %v", err)
	}
}

// TestReleaseMiddleHolder: releasing a holder from the middle of the owner
// list leaves every other holder's hold intact, and the released one can
// take the lock again.
func TestReleaseMiddleHolder(t *testing.T) {
	tbl := New(env(time.Second), nil)
	k := core.K("t", "x")
	rs := sharedHolders(t, tbl, k, 3)
	tbl.Release(rs[1], k)
	if !tbl.Holds(rs[0], k) || tbl.Holds(rs[1], k) || !tbl.Holds(rs[2], k) {
		t.Fatalf("after releasing the middle holder: holds = %v %v %v, want true false true",
			tbl.Holds(rs[0], k), tbl.Holds(rs[1], k), tbl.Holds(rs[2], k))
	}
	tbl.Release(rs[0], k)
	if !tbl.Holds(rs[2], k) {
		t.Fatal("last holder lost its hold when the first released")
	}
	if err := tbl.Acquire(rs[1], k, Shared); err != nil {
		t.Fatal(err)
	}
	if !tbl.Holds(rs[1], k) || !tbl.Holds(rs[2], k) {
		t.Fatal("re-acquired holder or remaining holder missing")
	}
}

// TestUpgradeAfterOthersRelease: with three Shared holders, one holder's
// upgrade waits until both others have released, then holds Exclusive.
func TestUpgradeAfterOthersRelease(t *testing.T) {
	tbl := New(env(2*time.Second), nil)
	k := core.K("t", "x")
	rs := sharedHolders(t, tbl, k, 3)
	up := rs[1]
	upgraded := make(chan error, 1)
	go func() { upgraded <- tbl.Acquire(up, k, Exclusive) }()
	for _, other := range []*core.Txn{rs[0], rs[2]} {
		select {
		case err := <-upgraded:
			t.Fatalf("upgrade granted against a live S holder: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		tbl.Release(other, k)
	}
	if err := <-upgraded; err != nil {
		t.Fatal(err)
	}
	if !tbl.Holds(up, k) || tbl.Holds(rs[0], k) || tbl.Holds(rs[2], k) {
		t.Fatal("upgrader should be the only holder")
	}
	c := txn(9, "c")
	got := make(chan error, 1)
	go func() { got <- tbl.Acquire(c, k, Shared) }()
	select {
	case err := <-got:
		t.Fatalf("S granted against the upgraded X: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	tbl.Release(up, k)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

// sameShardKeys returns two distinct keys that hash to one shard.
func sameShardKeys(t *testing.T) (core.Key, core.Key) {
	t.Helper()
	k1 := core.KeyOf("t", 0)
	for i := 1; i < 10000; i++ {
		if k2 := core.KeyOf("t", i); k2.Hash32()%numShards == k1.Hash32()%numShards {
			return k1, k2
		}
	}
	t.Fatal("no two keys share a shard")
	return k1, k1
}

// TestWaitedRecordNotRecycled: a lock record with a registered waiter
// stays the record of its key while records of another key in the same
// shard churn through the shard's free list, and the waiter is granted the
// lock it waited for once the holder releases.
func TestWaitedRecordNotRecycled(t *testing.T) {
	tbl := New(env(5*time.Second), nil)
	k1, k2 := sameShardKeys(t)
	s := tbl.shardFor(k1)
	a, b := txn(1, "a"), txn(2, "b")
	if err := tbl.Acquire(a, k1, Exclusive); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- tbl.Acquire(b, k1, Exclusive) }()
	var rec *lock
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		rec = s.locks[k1]
		waiting := rec != nil && rec.waiters == 1
		s.mu.Unlock()
		if waiting {
			break
		}
		if time.Since(start) > 2*time.Second {
			t.Fatal("waiter never registered")
		}
	}

	// Churn k2 from two goroutines in conflicting modes, so its records
	// are retired, reused and waited on while b waits on k1.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(c *core.Txn, m Mode) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := tbl.Acquire(c, k2, m); err != nil {
					t.Error(err)
					return
				}
				tbl.Release(c, k2)
			}
		}(txn(uint64(10+g), "c"), Mode(g))
	}
	wg.Wait()

	s.mu.Lock()
	same, waiters, owned := s.locks[k1] == rec, rec.waiters, rec.find(a) >= 0
	onFree := false
	for _, l := range s.free {
		onFree = onFree || l == rec
	}
	k2live := s.locks[k2] != nil
	s.mu.Unlock()
	if !same || onFree || waiters != 1 || !owned {
		t.Fatalf("k1 record reused: same=%v onFree=%v waiters=%d ownedByA=%v", same, onFree, waiters, owned)
	}
	if k2live {
		t.Fatal("k2 record left behind with no owners or waiters")
	}

	tbl.Release(a, k1)
	if err := <-granted; err != nil {
		t.Fatal(err)
	}
	if !tbl.Holds(b, k1) || tbl.Holds(a, k1) {
		t.Fatal("waiter not granted the lock it waited for")
	}
	tbl.Release(b, k1)
	s.mu.Lock()
	left := len(s.locks)
	s.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d records left in the shard after every release", left)
	}
}
