package lockmgr

import (
	"testing"
	"time"

	"repro/internal/core"
)

// Allocation budgets for the lock table. An uncontended grant, re-grant,
// upgrade and release allocate nothing: the record comes from the shard's
// free list, its owners fit inline, and no wake channel exists until a
// waiter needs one. Run with -run AllocBudget -v to see the measured values.

func checkBudget(t *testing.T, what string, f func()) {
	t.Helper()
	got := testing.AllocsPerRun(200, f)
	t.Logf("%s: %.1f allocs/op (budget 0)", what, got)
	if got > 0 {
		t.Errorf("%s: %.1f allocs/op exceeds budget 0", what, got)
	}
}

func mustAcquire(t *testing.T, tbl *Table, txn *core.Txn, k core.Key, m Mode) {
	t.Helper()
	if err := tbl.Acquire(txn, k, m); err != nil {
		t.Fatal(err)
	}
}

// TestAllocBudgetGrantRelease: Acquire and Release of a key with no record,
// in each mode; every run creates and retires the key's record.
func TestAllocBudgetGrantRelease(t *testing.T) {
	for _, c := range []struct {
		what string
		m    Mode
	}{{"grant+release Shared", Shared}, {"grant+release Exclusive", Exclusive}} {
		tbl := New(env(time.Second), nil)
		a := txn(1, "a")
		k := core.K("t", "x")
		checkBudget(t, c.what, func() {
			mustAcquire(t, tbl, a, k, c.m)
			tbl.Release(a, k)
		})
	}
}

// TestAllocBudgetReacquire: re-acquiring a lock the transaction holds.
func TestAllocBudgetReacquire(t *testing.T) {
	tbl := New(env(time.Second), nil)
	a := txn(1, "a")
	k := core.K("t", "x")
	mustAcquire(t, tbl, a, k, Exclusive)
	checkBudget(t, "re-acquire held X", func() {
		mustAcquire(t, tbl, a, k, Shared)
		mustAcquire(t, tbl, a, k, Exclusive)
	})
}

// TestAllocBudgetUpgrade: an uncontended Shared -> Exclusive upgrade.
func TestAllocBudgetUpgrade(t *testing.T) {
	tbl := New(env(time.Second), nil)
	a := txn(1, "a")
	k := core.K("t", "x")
	checkBudget(t, "S->X upgrade", func() {
		mustAcquire(t, tbl, a, k, Shared)
		mustAcquire(t, tbl, a, k, Exclusive)
		tbl.Release(a, k)
	})
}
