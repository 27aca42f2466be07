package wal

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/kvstore"
)

// RecoveredWrite is one surviving committed write.
type RecoveredWrite struct {
	Key      core.Key
	Value    []byte
	CommitTS uint64
}

// RecoveredState is the outcome of recovery: the latest committed version of
// every key, and the highest commit timestamp observed (the oracle must be
// advanced past it).
type RecoveredState struct {
	Writes []RecoveredWrite
	MaxTS  uint64
	// Discarded counts transactions dropped by the GCP / 2PC rules
	// (missing precommits, epoch beyond a durable frontier, or missing
	// commit record).
	Discarded int
	Committed int
	// SnapshotTS is the checkpoint cut recovery started from (0 when no
	// checkpoint existed and the whole history was replayed).
	SnapshotTS uint64
	// SnapshotKeys is the number of keys seeded from the checkpoint
	// snapshot.
	SnapshotKeys int
	// Replayed counts the precommit and commit entries of batch records
	// replayed from the log tail. With
	// checkpointing enabled this stays proportional to the post-frontier
	// tail, not to the full history.
	Replayed int
}

// Recover performs the three-step recovery procedure of §4.5.4, extended
// with checkpoint support:
//
//  0. load the newest complete checkpoint snapshot, if one was published
//     (manifest + per-shard snapshot files): it seeds the latest committed
//     version of every covered key, and only the log tail remains;
//  1. retrieve logs from each data server's persistent store — a key outside
//     the pipeline's format (b/ batches, e/ epoch markers, ck/ checkpoint
//     markers) fails recovery rather than being skipped, so a log written
//     in another format can never silently lose acknowledged commits;
//  2. reconstruct database state — discard transactions that are missing a
//     precommit record on any participant, whose records fall beyond a
//     server's durable epoch frontier, or that lack a coordinator commit
//     record; merge the survivors into the snapshot base, keeping the
//     latest committed version of each key (merging is by commit timestamp,
//     so records of snapshot-covered transactions that escaped compaction
//     replay idempotently);
//  3. CC-internal state (indices, version maps, lock tables) is rebuilt by
//     the caller: recovered writes are re-installed as committed history
//     that only the root CC needs to know about.
func Recover(dir string, shards int) (*RecoveredState, error) {
	if shards < 1 {
		shards = 1
	}
	out := &RecoveredState{}
	latest := map[core.Key]RecoveredWrite{}

	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if man != nil {
		if man.Shards != shards {
			return nil, fmt.Errorf("wal: checkpoint has %d shards, recovering %d", man.Shards, shards)
		}
		for i := 0; i < shards; i++ {
			snapTS, entries, err := readSnapshot(dir, man.ID, i)
			if err != nil {
				return nil, err
			}
			if snapTS != man.SnapTS {
				return nil, fmt.Errorf("wal: snapshot %d/%d cut %d != manifest %d", man.ID, i, snapTS, man.SnapTS)
			}
			for _, e := range entries {
				if cur, ok := latest[e.Key]; !ok || e.CommitTS > cur.CommitTS {
					latest[e.Key] = RecoveredWrite(e)
				}
				if e.CommitTS > out.MaxTS {
					out.MaxTS = e.CommitTS
				}
				out.SnapshotKeys++
			}
		}
		out.SnapshotTS = man.SnapTS
		if man.SnapTS > out.MaxTS {
			out.MaxTS = man.SnapTS
		}
	}

	type txnInfo struct {
		precommits int
		nShards    int
		epochOK    bool
		writes     []KV
		commitTS   uint64
		committed  bool
	}
	txns := map[uint64]*txnInfo{}
	get := func(id uint64) *txnInfo {
		t := txns[id]
		if t == nil {
			t = &txnInfo{epochOK: true}
			txns[id] = t
		}
		return t
	}

	for i := 0; i < shards; i++ {
		st, err := kvstore.Open(filepath.Join(dir, fmt.Sprintf("ds-%03d.log", i)))
		if err != nil {
			return nil, err
		}
		var frontier uint64
		if b := st.Get(fmt.Sprintf("e/%d", i)); len(b) == 8 {
			frontier = binary.LittleEndian.Uint64(b)
		}
		if man != nil {
			// The checkpoint frontier marker is staged through the
			// appender pipeline and fsynced on every shard BEFORE the
			// manifest is published, so a manifest always implies a
			// marker at least as new on every shard. A shard behind the
			// manifest means the logs and the manifest come from
			// different histories (outside interference, mixed
			// restores) — recovering would silently drop the compacted
			// prefix.
			b := st.Get(fmt.Sprintf("ck/%d", i))
			if len(b) != 16 {
				//lint:allow syncerr -- read-only store being abandoned; the missing-marker error below is the diagnosis
				st.Close()
				return nil, fmt.Errorf("wal: shard %d has no checkpoint frontier marker but manifest %d is published", i, man.ID)
			}
			if id := binary.LittleEndian.Uint64(b[0:8]); id < man.ID {
				//lint:allow syncerr -- read-only store being abandoned; the frontier-mismatch error below is the diagnosis
				st.Close()
				return nil, fmt.Errorf("wal: shard %d frontier marker %d behind manifest %d", i, id, man.ID)
			}
		}
		err = st.ForEach(func(key string, value []byte) error {
			switch {
			case strings.HasPrefix(key, "e/"), strings.HasPrefix(key, "ck/"):
				return nil // markers, read above
			case !strings.HasPrefix(key, "b/"):
				return fmt.Errorf("wal: shard %d log holds record %q outside the batch format", i, key)
			}
			entries, err := decodeBatch(value)
			if err != nil {
				return nil // torn batch: skip
			}
			for _, e := range entries {
				switch {
				case e.kind == recPrecommit:
					p, err := decodePrecommit(e.payload)
					if err != nil {
						continue // torn record: skip
					}
					out.Replayed++
					t := get(p.txnID)
					t.precommits++
					t.nShards = p.nShards
					t.writes = append(t.writes, p.writes...)
					if p.epoch > frontier {
						t.epochOK = false
					}
				case e.kind == recCommit && len(e.payload) >= 24:
					out.Replayed++
					t := get(binary.LittleEndian.Uint64(e.payload[0:8]))
					t.commitTS = binary.LittleEndian.Uint64(e.payload[8:16])
					if binary.LittleEndian.Uint64(e.payload[16:24]) > frontier {
						t.epochOK = false
					} else {
						t.committed = true
					}
				}
			}
			return nil
		})
		cerr := st.Close()
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
	}

	for _, t := range txns {
		if !t.committed || !t.epochOK || t.precommits < t.nShards {
			out.Discarded++
			continue
		}
		out.Committed++
		if t.commitTS > out.MaxTS {
			out.MaxTS = t.commitTS
		}
		for _, w := range t.writes {
			if cur, ok := latest[w.Key]; !ok || t.commitTS > cur.CommitTS {
				latest[w.Key] = RecoveredWrite{Key: w.Key, Value: w.Value, CommitTS: t.commitTS}
			}
		}
	}
	for _, w := range latest {
		out.Writes = append(out.Writes, w)
	}
	return out, nil
}
