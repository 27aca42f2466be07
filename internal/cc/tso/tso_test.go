// Tests for the TSO mechanism, driven through the public API (an external
// test package may import repro/tebaldi even though tebaldi transitively
// imports this package — only the test binary sees the cycle).
package tso_test

import (
	"errors"
	"testing"
	"time"

	"repro/tebaldi"
)

func openTSO(t *testing.T) *tebaldi.DB {
	t.Helper()
	specs := []*tebaldi.Spec{
		{Name: "w", Tables: []string{"t"}, WriteTables: []string{"t"}},
	}
	db, err := tebaldi.Open(tebaldi.Options{Shards: 4, LockTimeout: 2 * time.Second},
		specs, tebaldi.Leaf(tebaldi.TSO, "w"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestPipelinedReadOfUncommittedWrite: TSO exposes uncommitted writes — a
// later-timestamped reader sees an earlier transaction's pending value, and
// its commit waits for the writer (write-read dependency).
func TestPipelinedReadOfUncommittedWrite(t *testing.T) {
	db := openTSO(t)
	k := tebaldi.K("t", "x")
	db.Load(k, []byte("old"))

	t1, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Write(k, []byte("new")); err != nil {
		t.Fatal(err)
	}
	t2, err := db.Begin("w", 0) // later timestamp
	if err != nil {
		t.Fatal(err)
	}
	v, err := t2.Read(k)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "new" {
		t.Fatalf("pipelined read saw %q, want uncommitted \"new\"", v)
	}
	// t2's commit must wait for t1 (consistent ordering).
	done := make(chan error, 1)
	go func() { done <- t2.Commit() }()
	select {
	case err := <-done:
		t.Fatalf("dependent committed before its writer: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestTimestampOrderExcludesLaterWrites: a reader never sees a version
// written by a LARGER timestamp, committed or not — the serialization order
// is timestamp order.
func TestTimestampOrderExcludesLaterWrites(t *testing.T) {
	db := openTSO(t)
	k := tebaldi.K("t", "x")
	db.Load(k, []byte("old"))

	early, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	late, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Write(k, []byte("future")); err != nil {
		t.Fatal(err)
	}
	v, err := early.Read(k)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "old" {
		t.Fatalf("early reader saw %q, want \"old\"", v)
	}
	if err := early.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := late.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReadTimestampRule: once a later-timestamped reader has read a
// version, an earlier-timestamped writer of the same key arrives too late
// and aborts (it would invalidate the read).
func TestReadTimestampRule(t *testing.T) {
	db := openTSO(t)
	k := tebaldi.K("t", "x")
	db.Load(k, []byte("old"))

	writer, err := db.Begin("w", 0) // smaller timestamp
	if err != nil {
		t.Fatal(err)
	}
	reader, err := db.Begin("w", 0) // larger timestamp
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Read(k); err != nil {
		t.Fatal(err)
	}
	err = writer.Write(k, []byte("late"))
	if err == nil {
		t.Fatal("late write slotted in under an already-served read")
	}
	if !tebaldi.IsRetryable(err) {
		t.Fatalf("read-timestamp abort not retryable: %v", err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPromiseBlocksReaderUntilFulfilled: a declared write (§4.4.4)
// installs a placeholder; a later reader blocks on it instead of aborting
// the writer, and wakes with the fulfilled value.
func TestPromiseBlocksReaderUntilFulfilled(t *testing.T) {
	db := openTSO(t)
	k := tebaldi.K("t", "x")
	db.Load(k, []byte("old"))

	writer, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Promise(k); err != nil {
		t.Fatal(err)
	}
	reader, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	errc := make(chan error, 1)
	go func() {
		v, err := reader.Read(k)
		errc <- err
		got <- v
	}()
	select {
	case err := <-errc:
		t.Fatalf("reader did not block on the promise (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := writer.Write(k, []byte("fulfilled")); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if v := <-got; string(v) != "fulfilled" {
		t.Fatalf("reader woke with %q, want \"fulfilled\"", v)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestUnfulfilledPromiseRemovedOnAbort: aborting a promising transaction
// removes the placeholder so readers fall back to the committed version.
func TestUnfulfilledPromiseRemovedOnAbort(t *testing.T) {
	db := openTSO(t)
	k := tebaldi.K("t", "x")
	db.Load(k, []byte("old"))

	writer, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Promise(k); err != nil {
		t.Fatal(err)
	}
	writer.Rollback(nil)

	if err := db.Run("w", 0, func(tx *tebaldi.Tx) error {
		v, err := tx.Read(k)
		if err != nil {
			return err
		}
		if string(v) != "old" {
			t.Fatalf("read %q after promise abort, want \"old\"", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteTooLate: a writer whose timestamp is below an already-installed
// version of the key aborts (retryably). Installing beneath it would let the
// older writer commit after the younger one, so commit order, which
// latest-committed reads, snapshots and recovery use, would disagree with
// timestamp order.
func TestWriteTooLate(t *testing.T) {
	db := openTSO(t)
	k := tebaldi.K("t", "x")
	db.Load(k, []byte("old"))

	early, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	late, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Write(k, []byte("late")); err != nil {
		t.Fatal(err)
	}
	err = early.Write(k, []byte("early"))
	if err == nil {
		t.Fatal("older write installed beneath a younger version")
	}
	if !tebaldi.IsRetryable(err) {
		t.Fatalf("write-too-late abort not retryable: %v", err)
	}
	if err := late.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := db.ReadCommitted(k); string(v) != "late" {
		t.Fatalf("latest committed value %q, want \"late\"", v)
	}
}

// TestLeafBelowRootCommitsInTimestampOrder: under a parent, a TSO leaf
// commits in timestamp order, so the parent, which orders groups by what
// committed first, cannot invert the leaf's order. A younger transaction's
// commit waits for an older one still running.
func TestLeafBelowRootCommitsInTimestampOrder(t *testing.T) {
	specs := []*tebaldi.Spec{
		{Name: "w", Tables: []string{"t"}, WriteTables: []string{"t"}},
		{Name: "v", Tables: []string{"t"}, WriteTables: []string{"t"}},
	}
	db, err := tebaldi.Open(tebaldi.Options{Shards: 4, LockTimeout: 2 * time.Second}, specs,
		tebaldi.Inner(tebaldi.TwoPL, tebaldi.Leaf(tebaldi.TSO, "w"), tebaldi.Leaf(tebaldi.TwoPL, "v")))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	older, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	younger, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := younger.Write(tebaldi.K("t", "y"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- younger.Commit() }()
	select {
	case err := <-done:
		t.Fatalf("younger committed while an older transaction ran (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := older.Write(tebaldi.K("t", "o"), []byte("o")); err != nil {
		t.Fatal(err)
	}
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRunRetriesErrorFromAbortedWrite: TSO lets a transaction read an
// uncommitted write. If the transaction function fails on such a value and
// its writer then aborts, the failure came from a state that never
// committed: Run retries the transaction instead of returning the error.
func TestRunRetriesErrorFromAbortedWrite(t *testing.T) {
	db := openTSO(t)
	k := tebaldi.K("t", "x")
	db.Load(k, []byte("old"))

	writer, err := db.Begin("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Write(k, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	errDoomed := errors.New("read a value that must not exist")
	attempts := 0
	err = db.Run("w", 0, func(tx *tebaldi.Tx) error {
		attempts++
		v, err := tx.Read(k)
		if err != nil {
			return err
		}
		if string(v) == "doomed" {
			writer.Rollback(nil)
			return errDoomed
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run returned %v, want a retry that succeeds", err)
	}
	if attempts != 2 {
		t.Fatalf("%d attempts, want 2", attempts)
	}
}
