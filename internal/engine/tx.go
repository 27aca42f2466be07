package engine

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// Tx is a handle on one executing transaction. All methods must be called
// from a single goroutine (transactions are client-driven, §4.5.1). The
// handle stays on the owning goroutine, so storing the transaction pointer
// into it is ownership transfer, not publication.
//
// tebaldi:txnowner
type Tx struct {
	e *Engine
	t *core.Txn
	// id is a stable copy of the transaction id: the underlying Txn may be
	// recycled through the pool once the transaction finishes.
	id       uint64
	finished bool
}

// ID returns the transaction id.
func (tx *Tx) ID() uint64 { return tx.id }

// Txn exposes the underlying transaction (tests, tooling). The pointer is
// valid only until the transaction finishes: exposing it pins the Txn out of
// the recycling pool, and after commit/abort it must not be dereferenced.
func (tx *Tx) Txn() *core.Txn {
	if !tx.finished {
		tx.t.MarkShared()
	}
	return tx.t
}

func (tx *Tx) check() error {
	if tx.finished {
		return fmt.Errorf("engine: transaction %d already finished", tx.id)
	}
	if tx.t.State() == core.Aborted {
		// Force-aborted (reconfiguration drain): clean up on the
		// owner goroutine.
		return tx.abortWith(core.ErrReconfiguring)
	}
	return nil
}

// Read returns the value of k as selected by the CC tree (nil when the key
// is absent at the transaction's snapshot). The returned slice must not be
// modified.
//
// The no-conflict path takes the chain mutex exactly once: the
// read-your-own-writes pre-check is skipped entirely until the transaction
// has installed a version somewhere (an owner-goroutine check, no locking),
// and the wait deadline is computed only if a wait actually occurs.
func (tx *Tx) Read(k core.Key) ([]byte, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	t := tx.t
	tx.e.netDelay()
	ch := tx.e.store.Chain(k)

	// Read-your-own-writes fast path. Only transactions that have written
	// can hit it; promises are excluded here exactly as before (a promise
	// version is fulfilled through Write, not read back).
	if t.HasWrites() {
		ch.Lock()
		if v := ch.VersionBy(t); v != nil && !v.Promise {
			val := v.Value
			ch.Unlock()
			return val, nil
		}
		ch.Unlock()
	}

	// Top-down pass: every CC on the path may block or abort.
	if len(t.Path) == 1 {
		// Single-leaf (depth-1) tree: no amend chain, no proposal
		// threading — one CC, one lock acquisition.
		if err := t.Path[0].CC.PreRead(t, k); err != nil {
			return nil, tx.abortWith(err)
		}
		return tx.readLeaf(t.Path[0], k, ch)
	}
	for _, n := range t.Path {
		if err := n.CC.PreRead(t, k); err != nil {
			return nil, tx.abortWith(err)
		}
	}

	// Bottom-up pass: the leaf proposes, ancestors amend.
	var deadline time.Time
	for {
		ch.Lock()
		var proposal *core.Version
		var waitFor *core.WaitFor
		var err error
		for i := len(t.Path) - 1; i >= 0; i-- {
			proposal, err = t.Path[i].CC.AmendRead(t, k, ch, proposal)
			if err != nil {
				if w, ok := err.(*core.WaitFor); ok {
					waitFor = w
					break
				}
				ch.Unlock()
				return nil, tx.abortWith(err)
			}
		}
		if waitFor == nil {
			val, ferr := finishRead(t, proposal)
			ch.Unlock()
			if ferr != nil {
				return nil, tx.abortWith(ferr)
			}
			return val, nil
		}
		// The version is not readable yet: either a promised write
		// whose value has not arrived (§4.4.4) or a committing writer
		// whose outcome the snapshot depends on. Wait and retry.
		v := waitFor.V
		ch.Unlock()
		if err := tx.waitVersion(v, &deadline); err != nil {
			return nil, err
		}
	}
}

// readLeaf is Read's bottom-up pass specialized for depth-1 trees.
func (tx *Tx) readLeaf(n *core.Node, k core.Key, ch *core.Chain) ([]byte, error) {
	t := tx.t
	var deadline time.Time
	for {
		ch.Lock()
		proposal, err := n.CC.AmendRead(t, k, ch, nil)
		if err == nil {
			val, ferr := finishRead(t, proposal)
			ch.Unlock()
			if ferr != nil {
				return nil, tx.abortWith(ferr)
			}
			return val, nil
		}
		w, ok := err.(*core.WaitFor)
		if !ok {
			ch.Unlock()
			return nil, tx.abortWith(err)
		}
		v := w.V
		ch.Unlock()
		if err := tx.waitVersion(v, &deadline); err != nil {
			return nil, err
		}
	}
}

// finishRead extracts the value from an accepted proposal and records the
// cascading read-from dependency if the writer has not committed. Called
// with the chain lock held and leaves it held; the caller unlocks and turns
// a non-nil error into an abort.
func finishRead(t *core.Txn, proposal *core.Version) ([]byte, error) {
	if proposal == nil {
		return nil, nil
	}
	if proposal.Writer != t && !proposal.Committed() {
		// Read-from an uncommitted version: record the cascading
		// dependency while the chain is locked, so an abort of the
		// writer cannot slip in between. A writer that already
		// aborted (its versions not yet removed) fails the read with
		// ErrCascade.
		if err := t.AddDep(proposal.Writer, true); err != nil {
			return nil, err
		}
	}
	return proposal.Value, nil
}

// waitVersion blocks until v becomes readable (promise fulfilled or writer
// finished). The overall Read deadline is initialized lazily on the first
// wait, so wait-free reads never query the clock for it.
func (tx *Tx) waitVersion(v *core.Version, deadline *time.Time) error {
	if deadline.IsZero() {
		*deadline = time.Now().Add(tx.e.opts.LockTimeout)
	}
	remain := time.Until(*deadline)
	if remain <= 0 {
		return tx.abortWith(core.ErrTimeout)
	}
	waitCh := v.Ready()
	if waitCh == nil {
		waitCh = v.Writer.Done()
	}
	start := time.Now()
	err := tx.t.Await(v.Writer, waitCh, nil, remain)
	tx.e.env.Report(tx.t, v.Writer, start, time.Now())
	if err != nil {
		return tx.abortWith(err)
	}
	return nil
}

// Write installs (or overwrites) the transaction's version of k.
func (tx *Tx) Write(k core.Key, value []byte) error {
	if err := tx.check(); err != nil {
		return err
	}
	t := tx.t
	tx.e.netDelay()

	for _, n := range t.Path {
		if err := n.CC.PreWrite(t, k); err != nil {
			return tx.abortWith(err)
		}
	}

	ch := tx.e.store.Chain(k)
	grew := 0
	ch.Lock()
	v := ch.VersionBy(t)
	switch {
	case v != nil && v.Promise:
		// Fulfil the promise declared at start; readers waiting on
		// it wake up with the value.
		v.Fulfill(value)
		t.AddWrite(ch, v)
	case v != nil:
		// Second write of the same key: overwrite in place.
		v.Value = value
		ch.Unlock()
		return nil
	default:
		v = &core.Version{Writer: t, Value: value}
		grew = ch.Install(v)
		t.AddWrite(ch, v)
	}
	// Bottom-up pass: conflict checks and ordering metadata.
	for i := len(t.Path) - 1; i >= 0; i-- {
		if err := t.Path[i].CC.PostWrite(t, k, ch, v); err != nil {
			ch.Unlock()
			return tx.abortWith(err)
		}
	}
	ch.Unlock()
	if grew > 1 {
		// The chain now holds history; flag it for the incremental
		// collector. Outside the chain lock: MarkGC takes the storage
		// shard mutex, which must never nest inside a chain mutex.
		tx.e.store.MarkGC(ch)
	}
	return nil
}

// promiser is implemented by CC mechanisms supporting declared writes.
type promiser interface {
	Promise(t *core.Txn, ch *core.Chain)
}

// Promise declares keys the transaction will write (TSO promises, §4.4.4).
// Must be called before the first operation on those keys.
func (tx *Tx) Promise(keys ...core.Key) error {
	if err := tx.check(); err != nil {
		return err
	}
	for _, k := range keys {
		ch := tx.e.store.Chain(k)
		for _, n := range tx.t.Path {
			if p, ok := n.CC.(promiser); ok {
				ch.Lock()
				p.Promise(tx.t, ch)
				ch.Unlock()
			}
		}
		if ch.Len() > 1 {
			tx.e.store.MarkGC(ch)
		}
	}
	return nil
}

// Commit runs validation, the consistent-ordering dependency wait, the
// durability protocol, and the chained leaf-to-root commit phase.
func (tx *Tx) Commit() error {
	if err := tx.check(); err != nil {
		return err
	}
	t := tx.t

	// Consistent ordering (§4.2): wait for every recorded dependency to
	// commit; cascade if a read-from dependency aborted. This runs BEFORE
	// validation so that validation-time conflict checks (SSI's read-set
	// rescan) are separated from the commit point only by microseconds,
	// not by a potentially long dependency wait.
	if err := tx.waitDeps(); err != nil {
		return tx.abortWith(err)
	}

	// Validation phase, top-down.
	for _, n := range t.Path {
		if err := n.CC.Validate(t); err != nil {
			return tx.abortWith(err)
		}
	}

	// Durability: stage precommit records on every participating data
	// server's group-commit appender, then the coordinator's commit
	// record (§4.5.4). Staging is asynchronous — records from concurrent
	// committers coalesce into one append+flush per appender turn — so
	// the log never serializes the commit path; under SyncCommit the
	// wait is ticket.Wait below, on the whole batch's single fsync,
	// after the CC tree has released its state.
	var byShard map[int][]wal.KV
	if tx.e.walMgr != nil && len(t.Writes()) > 0 {
		byShard = map[int][]wal.KV{}
		for _, w := range t.Writes() {
			// Chain.Shard is memoized at creation; no re-hash per write.
			byShard[w.Chain.Shard] = append(byShard[w.Chain.Shard], wal.KV{Key: w.Chain.Key, Value: w.V.Value})
		}
	}
	var ticket *wal.Ticket
	var commitTS uint64
	ok := true
	if len(byShard) > 0 {
		// Close waits on walMu until the commit or abort record is
		// staged; once the WAL is closed, Precommit fails and the
		// transaction aborts before its commit point.
		tx.e.walMu.RLock()
		var epoch uint64
		var err error
		epoch, ticket, err = tx.e.walMgr.Precommit(t.ID, byShard)
		if err != nil {
			tx.e.walMu.RUnlock()
			return tx.abortWith(fmt.Errorf("%w: %w", core.ErrAborted, err))
		}
		if commitTS, ok = t.MarkCommittedNext(tx.e.oracle); ok {
			// The transaction is already committed in memory; an append
			// failure means durability (not atomicity) is at risk. The
			// WAL batch observer counts every failed flush exactly once
			// into stats.walErrors — counting again here would tally one
			// batch error once per coalesced committer.
			//lint:allow syncerr -- flush failures are tallied once per batch by the WAL observer into stats.walErrors; per-committer checks would double-count
			tx.e.walMgr.Commit(t.ID, commitTS, epoch, ticket)
		} else {
			// Force-aborted while committing. The staged precommit
			// records will never get a commit record; stage abort
			// markers so checkpoint compaction can reclaim them
			// (recovery discards the transaction either way).
			shards := make([]int, 0, len(byShard))
			for sh := range byShard {
				shards = append(shards, sh)
			}
			tx.e.walMgr.Abort(t.ID, shards)
		}
		tx.e.walMu.RUnlock()
	} else {
		commitTS, ok = t.MarkCommittedNext(tx.e.oracle)
	}
	if !ok {
		return tx.abortWith(core.ErrReconfiguring)
	}

	// Commit phase, chained leaf -> root, uninterrupted.
	for i := len(t.Path) - 1; i >= 0; i-- {
		t.Path[i].CC.Commit(t)
	}
	tx.e.unregister(t)

	// Synchronous durability: block until the group-commit batch holding
	// this transaction's records is flushed — AFTER the CC tree released
	// its state, so the log wait never throttles concurrency control
	// (committed-but-not-yet-durable transactions are indistinguishable
	// from durable ones to the CC mechanisms, §4.5.4). Only the client's
	// commit notification is delayed to coincide with the durable
	// notification.
	if ticket != nil && tx.e.walMgr.Synchronous() {
		// Flush failures are already in stats.walErrors via the batch
		// observer; the in-memory commit stands either way.
		//lint:allow syncerr -- Wait only delays the commit notification; its error is the batch flush error the observer already recorded
		ticket.Wait()
	}
	tx.e.stats.recordCommit(t)
	tx.finished = true
	// Recycle after the last engine-side read of t. PutTxn refuses
	// transactions whose pointer escaped (see core.Txn's reclamation rule).
	core.PutTxn(t)
	return nil
}

// waitDeps enforces consistent ordering at commit: the transaction commits
// only after every recorded dependency has committed (the generalization of
// the nexus lock release order). Each wait is reported to the profiler as a
// blocking event on the dependency's transaction type. Transactions with no
// recorded dependencies (every read hit committed history) skip the loop and
// its allocations entirely.
func (tx *Tx) waitDeps() error {
	t := tx.t
	if !t.HasDeps() {
		return nil
	}
	deadline := time.Now().Add(tx.e.opts.LockTimeout)
	seen := make(map[uint64]bool)
	for {
		progress := false
		for _, d := range t.Deps() {
			if seen[d.T.ID] {
				continue
			}
			seen[d.T.ID] = true
			progress = true
			if d.T.Finished() {
				if d.T.State() == core.Aborted && d.Read {
					return core.ErrCascade
				}
				continue
			}
			remain := time.Until(deadline)
			if remain <= 0 {
				return core.ErrTimeout
			}
			start := time.Now()
			err := t.Await(d.T, d.T.Done(), nil, remain)
			tx.e.env.Report(t, d.T, start, time.Now())
			if err != nil {
				return err
			}
			if d.T.State() == core.Aborted && d.Read {
				return core.ErrCascade
			}
		}
		if !progress {
			return nil
		}
	}
}

// readFromAborted waits, up to the lock timeout, for the writers of the
// uncommitted versions the transaction read, and reports whether one of them
// aborted. Mechanisms that expose uncommitted writes (TSO, RP) let a
// transaction read a state that only a later cascade would reject; an error
// the transaction derived from such a state must not reach the caller.
func (tx *Tx) readFromAborted() bool {
	if tx.finished || !tx.t.HasDeps() {
		return false
	}
	timer := time.NewTimer(tx.e.opts.LockTimeout)
	defer timer.Stop()
	for _, d := range tx.t.Deps() {
		if !d.Read {
			continue
		}
		select {
		case <-d.T.Done():
		case <-timer.C:
			return false
		}
		if d.T.State() == core.Aborted {
			return true
		}
	}
	return false
}

// Rollback aborts the transaction. cause is recorded in the abort stats
// (nil means user abort).
func (tx *Tx) Rollback(cause error) {
	if tx.finished {
		return
	}
	if cause == nil {
		cause = core.ErrUserAbort
	}
	tx.abortWith(cause)
}

// abortWith finishes the transaction on its abort path and returns the
// (wrapped) cause. Idempotent with respect to force-aborts: the cleanup
// always runs exactly once, on the owner goroutine.
func (tx *Tx) abortWith(cause error) error {
	if tx.finished {
		return cause
	}
	tx.finished = true
	t := tx.t
	t.MarkAborted()
	// Remove installed versions so no new reader observes them; existing
	// readers cascade via their read-from dependencies.
	for _, w := range t.Writes() {
		w.Chain.Lock()
		w.Chain.Remove(w.V)
		w.Chain.Unlock()
	}
	// Abort phase, leaf -> root.
	for i := len(t.Path) - 1; i >= 0; i-- {
		t.Path[i].CC.Abort(t)
	}
	tx.e.unregister(t)
	tx.e.stats.recordAbort(t, cause)
	core.PutTxn(t)
	return cause
}
