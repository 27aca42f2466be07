// Package lockmgr implements the lock tables used by Tebaldi's lock-based CC
// mechanisms (two-phase locking and the intra-step locks of Runtime
// Pipelining).
//
// A lock table supports shared/exclusive row locks with three Tebaldi
// specifics:
//
//   - an exemption predicate: transactions delegated to the same child of
//     the owning CC node never conflict (nexus-lock semantics, §3.3.2) —
//     their conflicts are the child's responsibility;
//   - timeout-based deadlock resolution (§4.4.1): waits abort with
//     core.ErrTimeout when they exceed the configured bound; the youngest
//     member of a waits-for cycle (core.Txn.Await) aborts with
//     core.ErrConflict instead of burning the timeout;
//   - blocking-event reporting to the performance profiler (§5.3.2).
//
// Acquiring a lock after a wait records ordering dependencies on the owners
// that were waited for, feeding the engine's consistent-ordering commit wait.
package lockmgr

import (
	"sync"
	"time"

	"repro/internal/core"
)

// Mode is a lock mode.
type Mode int

const (
	// Shared is a read lock; shared locks are mutually compatible.
	Shared Mode = iota
	// Exclusive is a write lock; it conflicts with every mode.
	Exclusive
)

const numShards = 64

// Table is a sharded lock table. One table serves one CC node.
type Table struct {
	env *core.Env
	// exempt reports that two transactions never conflict at this table
	// (same-child delegation). May be nil.
	exempt func(a, b *core.Txn) bool
	shards [numShards]shard
}

// shard holds the records of the keys that hash to it. A key has a record
// exactly while it has owners or waiters.
type shard struct {
	mu    sync.Mutex
	locks map[core.Key]*lock
	// free holds retired lock records for reuse, at most maxFree of them.
	// A record is retired only when it has no owners and no waiters, so
	// no wait registration can follow it onto another key.
	free []*lock
}

// maxFree bounds each shard's free list: enough to absorb the records a
// burst of short transactions retires, small enough to be noise in memory.
const maxFree = 32

// owner is one holder of a lock and the mode it holds.
type owner struct {
	txn  *core.Txn
	mode Mode
}

// lock is the record of one key. Guarded by its shard's mu.
type lock struct {
	// owners lists the holders, at most one entry per transaction. It is
	// backed by inline until a key has more than two owners.
	owners  []owner
	inline  [2]owner
	waiters int
	// gen is made by the first waiter and closed (then cleared) whenever
	// the owner set shrinks, waking waiters to re-check compatibility.
	// Nil while nobody waits, so an uncontended grant makes no channel.
	gen chan struct{}
}

// get returns a lock record for a key with no entry, from the free list if
// it has one. Called with s.mu held.
func (s *shard) get() *lock {
	if n := len(s.free); n > 0 {
		l := s.free[n-1]
		s.free = s.free[:n-1]
		return l
	}
	l := &lock{}
	l.owners = l.inline[:0]
	return l
}

// drop deletes k's record, which has no owners and no waiters, and keeps it
// for reuse. Called with s.mu held.
func (s *shard) drop(k core.Key, l *lock) {
	delete(s.locks, k)
	if len(s.free) == maxFree {
		return
	}
	// Release zeroes every slot it vacates; inline may still hold the
	// owners copied out when the list spilled to the heap. Zero it, so no
	// *core.Txn stays reachable from a retired record, and let a spilled
	// array go. gen is already nil: only Release empties owners.
	l.inline = [2]owner{}
	l.owners = l.inline[:0]
	s.free = append(s.free, l)
}

// find returns the index of txn's entry in owners, or -1.
func (l *lock) find(txn *core.Txn) int {
	for i := range l.owners {
		if l.owners[i].txn == txn {
			return i
		}
	}
	return -1
}

// New creates a lock table. exempt may be nil (no exemption: leaf 2PL).
func New(env *core.Env, exempt func(a, b *core.Txn) bool) *Table {
	t := &Table{env: env, exempt: exempt}
	for i := range t.shards {
		t.shards[i].locks = make(map[core.Key]*lock)
	}
	return t
}

func (t *Table) shardFor(k core.Key) *shard {
	// Inlined FNV-1a (core.Key.Hash32): hash/fnv allocated a hasher and
	// three byte-slice conversions on every call; placement is unchanged.
	return &t.shards[k.Hash32()%numShards]
}

// conflicts reports whether owner's hold in mode om conflicts with txn
// requesting mode m.
func (t *Table) conflicts(owner *core.Txn, om Mode, txn *core.Txn, m Mode) bool {
	if owner == txn {
		return false
	}
	if t.exempt != nil && t.exempt(owner, txn) {
		return false
	}
	return om == Exclusive || m == Exclusive
}

// Acquire takes the lock on k in mode m for txn, blocking until compatible
// or until the table's lock timeout expires (returning core.ErrTimeout).
// Re-acquiring an already-held lock is a no-op; Shared->Exclusive upgrades
// are supported. Ordering dependencies on the owners waited for are recorded
// on txn.
func (t *Table) Acquire(txn *core.Txn, k core.Key, m Mode) error {
	// The lock table retains the pointer (owner list; waiters hold it as
	// their recorded blocker) past this call: the txn must never be pooled.
	txn.MarkShared()
	s := t.shardFor(k)
	// Deadline for the wait path, computed on first conflict only: the
	// uncontended grant never queries the clock.
	var deadline time.Time

	var blockStart time.Time
	var blocker *core.Txn
	flush := func(end time.Time) {
		if blocker != nil {
			t.env.Report(txn, blocker, blockStart, end)
			blocker = nil
		}
	}

	for {
		s.mu.Lock()
		l := s.locks[k]
		if l == nil {
			l = s.get()
			s.locks[k] = l
		}
		i := l.find(txn)
		if i >= 0 && (l.owners[i].mode == Exclusive || l.owners[i].mode == m) {
			s.mu.Unlock()
			flush(time.Now())
			return nil
		}
		var conflictOwner *core.Txn
		for _, o := range l.owners {
			if t.conflicts(o.txn, o.mode, txn, m) {
				conflictOwner = o.txn
				break
			}
		}
		if conflictOwner == nil {
			// Grant (or upgrade Shared -> Exclusive).
			if i >= 0 {
				l.owners[i].mode = m
			} else {
				l.owners = append(l.owners, owner{txn: txn, mode: m})
			}
			s.mu.Unlock()
			flush(time.Now())
			return nil
		}
		if l.gen == nil {
			l.gen = make(chan struct{})
		}
		gen := l.gen
		l.waiters++
		s.mu.Unlock()

		now := time.Now()
		if blocker != conflictOwner {
			flush(now)
			blocker, blockStart = conflictOwner, now
		}
		// The conflicting owner must finish (or step-release) before
		// us: a lock-order dependency.
		err := txn.AddDep(conflictOwner, false)
		if err == nil {
			if deadline.IsZero() {
				deadline = time.Now().Add(t.env.LockTimeout)
			}
			if remain := time.Until(deadline); remain > 0 {
				// Two Shared holders both upgrading wait on each
				// other: Await kills the younger, as any waits-for
				// cycle, instead of letting both burn the timeout
				// and re-deadlock on retry.
				err = txn.Await(conflictOwner, gen, nil, remain)
			} else {
				err = core.ErrTimeout
			}
		}
		t.doneWaiting(s, k)
		if err != nil {
			flush(time.Now())
			return err
		}
	}
}

// doneWaiting retires one wait registration.
func (t *Table) doneWaiting(s *shard, k core.Key) {
	s.mu.Lock()
	if l := s.locks[k]; l != nil {
		l.waiters--
		if l.waiters == 0 && len(l.owners) == 0 {
			s.drop(k, l)
		}
	}
	s.mu.Unlock()
}

// Release drops txn's lock on k, waking waiters.
func (t *Table) Release(txn *core.Txn, k core.Key) {
	s := t.shardFor(k)
	s.mu.Lock()
	if l := s.locks[k]; l != nil {
		if i := l.find(txn); i >= 0 {
			last := len(l.owners) - 1
			l.owners[i] = l.owners[last]
			l.owners[last] = owner{}
			l.owners = l.owners[:last]
			if l.gen != nil {
				close(l.gen)
				l.gen = nil
			}
			if l.waiters == 0 && len(l.owners) == 0 {
				s.drop(k, l)
			}
		}
	}
	s.mu.Unlock()
}

// ReleaseAll drops every lock in keys held by txn.
func (t *Table) ReleaseAll(txn *core.Txn, keys []core.Key) {
	for _, k := range keys {
		t.Release(txn, k)
	}
}

// Holds reports whether txn currently owns a lock on k (any mode).
func (t *Table) Holds(txn *core.Txn, k core.Key) bool {
	s := t.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.locks[k]
	return l != nil && l.find(txn) >= 0
}
