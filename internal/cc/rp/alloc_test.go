package rp

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lockmgr"
)

// TestAllocBudgetStepAdvance: taking an intra-step lock and advancing to
// the next step with no successor waiting allocates nothing. The held-lock
// list keeps its backing array across steps, the lock table recycles the
// record, and no wake channel exists until a successor waits.
func TestAllocBudgetStepAdvance(t *testing.T) {
	node := &core.Node{Types: []string{"p"}}
	node.FinalizeRouting()
	env := &core.Env{
		LockTimeout: time.Second,
		Specs:       map[string]*core.Spec{"p": {Name: "p", Tables: []string{"a", "b"}}},
	}
	r := New(env, node)
	tx := core.NewTxn(1, "p", 0, 1)
	tx.Slots = make([]any, 1)
	if err := r.Begin(tx); err != nil {
		t.Fatal(err)
	}
	s := r.slotOf(tx)
	k := core.K("a", "x")
	got := testing.AllocsPerRun(200, func() {
		s.curAtomic.Store(0) // back to step 0; steps only move forward
		if err := r.acquire(tx, k, lockmgr.Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := r.enterStep(tx, "b"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("lock + step advance: %.1f allocs/op (budget 0)", got)
	if got > 0 {
		t.Errorf("lock + step advance: %.1f allocs/op exceeds budget 0", got)
	}
	if r.locks.Holds(tx, k) {
		t.Fatal("step advance kept the earlier step's lock")
	}
}
