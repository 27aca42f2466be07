// Tests for the 2PL mechanism, driven through the public API (an external
// test package may import repro/tebaldi even though tebaldi transitively
// imports this package — only the test binary sees the cycle).
package twopl_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cc/twopl"
	"repro/internal/core"
	"repro/tebaldi"
)

func open2PL(t *testing.T, timeout time.Duration) *tebaldi.DB {
	t.Helper()
	specs := []*tebaldi.Spec{
		{Name: "w", Tables: []string{"t"}, WriteTables: []string{"t"}},
	}
	db, err := tebaldi.Open(tebaldi.Options{Shards: 4, LockTimeout: timeout},
		specs, tebaldi.Leaf(tebaldi.TwoPL, "w"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestExclusiveLockBlocksReaderUntilCommit: strict 2PL — a reader of a
// write-locked key blocks until the writer commits, then sees the new value.
func TestExclusiveLockBlocksReaderUntilCommit(t *testing.T) {
	db := open2PL(t, 2*time.Second)
	k := tebaldi.K("t", "x")
	db.Load(k, []byte("old"))

	w, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(k, []byte("new")); err != nil {
		t.Fatal(err)
	}

	got := make(chan []byte, 1)
	errc := make(chan error, 1)
	go func() {
		r, err := db.Begin("w", 0)
		if err != nil {
			errc <- err
			return
		}
		v, err := r.Read(k)
		if err != nil {
			errc <- err
			return
		}
		errc <- r.Commit()
		got <- v
	}()

	// The reader must be blocked on the exclusive lock.
	select {
	case <-got:
		t.Fatal("reader returned while writer held the exclusive lock")
	case err := <-errc:
		t.Fatalf("reader errored instead of blocking: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if v := <-got; string(v) != "new" {
		t.Fatalf("reader saw %q, want \"new\"", v)
	}
}

// TestSharedLocksAllowConcurrentReaders: two transactions hold shared locks
// on the same key simultaneously.
func TestSharedLocksAllowConcurrentReaders(t *testing.T) {
	db := open2PL(t, 500*time.Millisecond)
	k := tebaldi.K("t", "x")
	db.Load(k, []byte("v"))

	r1, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Read(k); err != nil {
		t.Fatal(err)
	}
	// r2's shared lock must not block behind r1's.
	done := make(chan error, 1)
	go func() {
		_, err := r2.Read(k)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(200 * time.Millisecond):
		t.Fatal("second shared reader blocked")
	}
	if err := r1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := r2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockResolvedByTimeout: two transactions lock a and b in opposite
// orders; the timeout breaks the deadlock with a retryable abort (§4.4.1).
func TestDeadlockResolvedByTimeout(t *testing.T) {
	db := open2PL(t, 100*time.Millisecond)
	a, b := tebaldi.K("t", "a"), tebaldi.K("t", "b")
	db.Load(a, []byte("0"))
	db.Load(b, []byte("0"))

	t1, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Write(a, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(b, []byte("2")); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = t1.Write(b, []byte("1")) }()
	go func() { defer wg.Done(); errs[1] = t2.Write(a, []byte("2")) }()
	wg.Wait()

	aborted := 0
	for _, err := range errs {
		if err != nil {
			if !tebaldi.IsRetryable(err) {
				t.Fatalf("deadlock abort not retryable: %v", err)
			}
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatal("opposite-order lock acquisition did not abort either transaction")
	}
	// The survivors (if any) can still finish.
	for i, tx := range []*tebaldi.Tx{t1, t2} {
		if errs[i] == nil {
			if err := tx.Commit(); err != nil {
				t.Fatalf("survivor %d: %v", i, err)
			}
		}
	}
}

// TestLocksReleasedOnAbort: an aborted writer's locks free immediately and
// its version is gone.
func TestLocksReleasedOnAbort(t *testing.T) {
	db := open2PL(t, 2*time.Second)
	k := tebaldi.K("t", "x")
	db.Load(k, []byte("old"))

	w, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(k, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	w.Rollback(nil)

	err = db.Run("w", 0, func(tx *tebaldi.Tx) error {
		v, err := tx.Read(k)
		if err != nil {
			return err
		}
		if string(v) != "old" {
			t.Fatalf("read %q after abort, want \"old\"", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNexusSameChildExemption: as a non-leaf (Callas nexus locks, §3.3.2),
// 2PL exempts same-child pairs — two transactions of types delegated to the
// same (pipelining TSO) child don't conflict on the parent's lock table,
// while a different-child transaction still blocks.
func TestNexusSameChildExemption(t *testing.T) {
	specs := []*tebaldi.Spec{
		{Name: "a1", Tables: []string{"t"}, WriteTables: []string{"t"}},
		{Name: "a2", Tables: []string{"t"}, WriteTables: []string{"t"}},
		{Name: "b", Tables: []string{"t"}, WriteTables: []string{"t"}},
	}
	cfg := tebaldi.Inner(tebaldi.TwoPL,
		tebaldi.Leaf(tebaldi.TSO, "a1", "a2"),
		tebaldi.Leaf(tebaldi.TwoPL, "b"))
	db, err := tebaldi.Open(tebaldi.Options{Shards: 4, LockTimeout: 300 * time.Millisecond}, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	k := tebaldi.K("t", "x")
	db.Load(k, []byte("0"))

	t1, err := db.Begin("a1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Write(k, []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Same child: no nexus-lock conflict (RP regulates the pair).
	t2, err := db.Begin("a2", 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- t2.Write(k, []byte("2")) }()
	select {
	case <-done:
		// Proceeded (possibly with an RP-level dependency) — the nexus
		// lock did not block it.
	case <-time.After(200 * time.Millisecond):
		t.Fatal("same-child writer blocked on the nexus lock")
	}
	// Different child: must block on the nexus lock until timeout.
	t3, err := db.Begin("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := t3.Write(k, []byte("3")); err == nil {
		t.Fatal("different-child writer acquired a held nexus lock")
	} else if !tebaldi.IsRetryable(err) {
		t.Fatalf("expected retryable timeout, got %v", err)
	}
	t1.Rollback(nil)
	t2.Rollback(nil)
}

// TestAmendReadKeepsSameChildOrder: on 2PL[TSO(a1,a2), 2PL(b)], the 2PL
// parent must not replace the TSO child's committed proposal with a newer
// committed version written by the reader's own child: TSO may have placed
// the reader before that write in timestamp order although the write
// committed earlier in real time. A newer committed version from the other
// child is the parent's to order, and does replace the proposal.
func TestAmendReadKeepsSameChildOrder(t *testing.T) {
	root := &core.Node{ID: 0}
	tsoChild := &core.Node{ID: 1, Depth: 1, Parent: root, Types: []string{"a1", "a2"}}
	bChild := &core.Node{ID: 2, Depth: 1, Parent: root, Types: []string{"b"}}
	root.Children = []*core.Node{tsoChild, bChild}
	root.FinalizeRouting()
	p := twopl.New(&core.Env{LockTimeout: time.Second}, root)

	newTxn := func(id uint64, typ string) *core.Txn {
		tx := core.NewTxn(id, typ, 0, id)
		tx.Path = root.PathFor(tx)
		return tx
	}
	k := core.K("t", "x")
	ch := core.NewChain(k)
	write := func(tx *core.Txn, val string, commitTS uint64) *core.Version {
		v := &core.Version{Writer: tx, Value: []byte(val)}
		ch.Install(v)
		if !tx.MarkCommitted(commitTS) {
			t.Fatalf("txn %d did not commit", tx.ID)
		}
		return v
	}

	// The schedule: b-loader commits v0 at 1; reader r (a1) begins at 2;
	// writer w (a2) begins at 3 and commits v1 at 4; r reads, and its TSO
	// child proposes v0, the latest version below r's timestamp.
	v0 := write(newTxn(1, "b"), "v0", 1)
	r := newTxn(2, "a1")
	write(newTxn(3, "a2"), "v1", 4)
	got, err := p.AmendRead(r, k, ch, v0)
	if err != nil {
		t.Fatal(err)
	}
	if got != v0 {
		t.Fatalf("2PL parent replaced the child's proposal v0 with %q, a same-child version", got.Value)
	}

	// A b-writer commits v2 at 5: cross-child, newer, and the parent's to
	// order, so it replaces the proposal.
	v2 := write(newTxn(5, "b"), "v2", 5)
	if got, err = p.AmendRead(r, k, ch, v0); err != nil {
		t.Fatal(err)
	}
	if got != v2 {
		t.Fatalf("2PL parent returned %q, want the newer cross-child v2", got.Value)
	}
}
