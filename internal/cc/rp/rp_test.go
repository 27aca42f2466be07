// Tests for the Runtime Pipelining mechanism, driven through the public API
// (an external test package may import repro/tebaldi even though tebaldi
// transitively imports this package — only the test binary sees the cycle).
package rp_test

import (
	"testing"
	"time"

	"repro/tebaldi"
)

// openRP opens a store whose only group is an RP leaf running type "p",
// which accesses tables a, b, c in that order: pipeline steps 0, 1, 2.
func openRP(t *testing.T, timeout time.Duration) *tebaldi.DB {
	t.Helper()
	specs := []*tebaldi.Spec{
		{Name: "p", Tables: []string{"a", "b", "c"}, WriteTables: []string{"a", "b", "c"}},
	}
	db, err := tebaldi.Open(tebaldi.Options{Shards: 4, LockTimeout: timeout},
		specs, tebaldi.Leaf(tebaldi.RP, "p"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, tbl := range []string{"a", "b", "c"} {
		for _, row := range []string{"x", "y"} {
			db.Load(tebaldi.K(tbl, row), []byte("0"))
		}
	}
	return db
}

func begin(t *testing.T, db *tebaldi.DB) *tebaldi.Tx {
	t.Helper()
	tx, err := db.Begin("p", 0)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func write(t *testing.T, tx *tebaldi.Tx, k tebaldi.Key, v string) {
	t.Helper()
	if err := tx.Write(k, []byte(v)); err != nil {
		t.Fatalf("write %v: %v", k, err)
	}
}

// blocked fails the test if c yields within 50ms, i.e. if the operation
// that feeds it did not block.
func blocked(t *testing.T, c <-chan error, what string) {
	t.Helper()
	select {
	case err := <-c:
		t.Fatalf("%s did not block (err %v)", what, err)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestSuccessorWakesOnStepAdvance: a successor that depends on a
// predecessor waits in the predecessor's current step until the
// predecessor advances past it, and is woken by that advance itself, not
// by the predecessor's commit or the lock timeout.
func TestSuccessorWakesOnStepAdvance(t *testing.T) {
	db := openRP(t, 10*time.Second)
	t1 := begin(t, db)
	write(t, t1, tebaldi.K("a", "x"), "1")

	read := make(chan string, 1)
	step := make(chan error, 1)
	done := make(chan error, 1)
	go func() {
		t2, err := db.Begin("p", 0)
		if err != nil {
			step <- err
			return
		}
		// Blocks on t1's step-0 lock, then reads t1's step-committed
		// write: t2 now depends on t1.
		v, err := t2.Read(tebaldi.K("a", "x"))
		if err != nil {
			step <- err
			return
		}
		read <- string(v)
		// Step 1 is t1's current step: t2 must wait for t1 to leave it.
		step <- t2.Write(tebaldi.K("b", "y"), []byte("2"))
		done <- t2.Commit()
	}()

	write(t, t1, tebaldi.K("b", "x"), "1") // t1 enters step 1
	select {
	case v := <-read:
		if v != "1" {
			t.Fatalf("successor read %q, want t1's step-committed \"1\"", v)
		}
	case err := <-step:
		t.Fatalf("successor failed before entering step 1: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("successor never read t1's step-0 write")
	}
	blocked(t, step, "successor's entry into the predecessor's current step")

	write(t, t1, tebaldi.K("c", "x"), "1") // t1 enters step 2
	select {
	case err := <-step:
		if err != nil {
			t.Fatalf("successor's step entry failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("successor not woken by the predecessor's step advance")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := string(db.ReadCommitted(tebaldi.K("b", "y"))); got != "2" {
		t.Fatalf("b/y = %q, want \"2\"", got)
	}
}

// TestStepAdvanceReleasesStepLocks: entering a later step releases every
// intra-step lock of the earlier one, so a conflicting transaction takes
// them while the first is still running.
func TestStepAdvanceReleasesStepLocks(t *testing.T) {
	db := openRP(t, 10*time.Second)
	t1 := begin(t, db)
	write(t, t1, tebaldi.K("a", "x"), "1")
	write(t, t1, tebaldi.K("a", "y"), "1")

	t2 := begin(t, db)
	got := make(chan error, 1)
	go func() {
		if err := t2.Write(tebaldi.K("a", "x"), []byte("2")); err != nil {
			got <- err
			return
		}
		got <- t2.Write(tebaldi.K("a", "y"), []byte("2"))
	}()
	blocked(t, got, "a conflicting write on a step-0 lock")

	write(t, t1, tebaldi.K("b", "x"), "1") // t1 enters step 1
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("conflicting writes after the step advance: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("step-0 locks not released by the step advance")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"x", "y"} {
		if v := string(db.ReadCommitted(tebaldi.K("a", row))); v != "2" {
			t.Fatalf("a/%s = %q, want the later writer's \"2\"", row, v)
		}
	}
}

// TestCommitAndAbortReleaseStepLocks: Commit and Abort release the locks
// of the step the transaction ends in. The lock timeout is short, so a
// leftover lock fails the next writer instead of blocking it.
func TestCommitAndAbortReleaseStepLocks(t *testing.T) {
	for _, commit := range []bool{true, false} {
		db := openRP(t, 100*time.Millisecond)
		t1 := begin(t, db)
		write(t, t1, tebaldi.K("a", "x"), "1")
		write(t, t1, tebaldi.K("b", "x"), "1")
		write(t, t1, tebaldi.K("b", "y"), "1")
		if commit {
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			t1.Rollback(nil)
		}
		t2 := begin(t, db)
		write(t, t2, tebaldi.K("b", "x"), "2")
		write(t, t2, tebaldi.K("b", "y"), "2")
		if err := t2.Commit(); err != nil {
			t.Fatalf("commit=%v: %v", commit, err)
		}
		if v := string(db.ReadCommitted(tebaldi.K("b", "y"))); v != "2" {
			t.Fatalf("commit=%v: b/y = %q, want \"2\"", commit, v)
		}
	}
}
