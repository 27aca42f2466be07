package engine

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// TestCloseDrainsCommitters races Close against concurrent synchronous
// committers. The WAL pipeline is the only write path, so Close must drain
// every committer that staged precommit records before the WAL shuts down:
// Close returns, no committer hangs, every commit acknowledged with a nil
// error survives recovery, and Begin and Precommit after Close report that
// the engine is closed.
func TestCloseDrainsCommitters(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	e, err := New(Options{
		Shards:         shards,
		LockTimeout:    time.Second,
		DurabilityDir:  dir,
		DurabilitySync: true,
		GCPEpoch:       time.Hour, // only per-batch syncs and the final seal
	}, []*core.Spec{{Name: "put", Tables: []string{"kv"}, WriteTables: []string{"kv"}}},
		G(Kind2PL, []string{"put"}))
	if err != nil {
		t.Fatal(err)
	}

	// Begun before Close, committed after it: its precommit must be
	// refused.
	late, err := e.Begin("put", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Write(core.KeyOf("late", 0), []byte("late")); err != nil {
		t.Fatal(err)
	}

	var (
		keySeq  atomic.Int64
		ackMu   sync.Mutex
		acked   []core.Key
		warm    = make(chan struct{})
		warmOne sync.Once
		stop    = make(chan struct{}) // backstop; Begin failing ends each loop
		wg      sync.WaitGroup
	)
	defer close(stop)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := e.Begin("put", 0)
				if err != nil {
					return // closed
				}
				key := core.KeyOf("kv", int(keySeq.Add(1)))
				if err := tx.Write(key, []byte(key.Row)); err != nil {
					tx.Rollback(err)
					continue
				}
				if tx.Commit() != nil {
					continue
				}
				ackMu.Lock()
				acked = append(acked, key)
				if len(acked) >= 20 {
					warmOne.Do(func() { close(warm) })
				}
				ackMu.Unlock()
			}
		}()
	}

	select {
	case <-warm:
	case <-time.After(10 * time.Second):
		t.Fatal("committers made no progress")
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a committer hung across Close")
	}

	if _, err := e.Begin("put", 0); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Begin after Close: %v, want a closed error", err)
	}
	if err := late.Commit(); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("commit after Close: %v, want wal.ErrClosed", err)
	}

	st, err := wal.Recover(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	got := map[core.Key]string{}
	for _, w := range st.Writes {
		got[w.Key] = string(w.Value)
	}
	for _, k := range acked {
		if got[k] != k.Row {
			t.Fatalf("acknowledged commit of %v lost across Close (recovered %q)", k, got[k])
		}
	}
	if _, ok := got[core.KeyOf("late", 0)]; ok {
		t.Fatal("write of a transaction refused at Close was recovered")
	}
}
