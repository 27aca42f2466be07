package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanKind names what a span covers. The in-process tree is transaction →
// attempt → begin / execute / commit or rollback (CC waits below execute or
// commit), plus backoff under the transaction. On kv-served it is arrival →
// queue and one RTT span per frame. Checkpoint and recover stand alone.
type spanKind uint8

const (
	kTransaction spanKind = iota
	kAttempt
	kBegin
	kExecute
	kCommit
	kRollback
	kBackoff
	kWait
	kArrival
	kQueue
	kRTTBegin
	kRTTGet
	kRTTPut
	kRTTCommitRO
	kRTTCommitRW
	kCheckpoint
	kRecover
	numKinds
)

var kindNames = [numKinds]string{
	"transaction", "attempt", "begin", "execute", "commit", "rollback", "backoff", "cc.wait",
	"arrival", "queue", "rtt.begin", "rtt.get", "rtt.put", "rtt.commit_ro", "rtt.commit_rw",
	"checkpoint", "recover",
}

// span is one timed interval. Spans of one logical transaction (or one
// arrival) share trace.
type span struct {
	id, parent, trace uint64
	start, end        int64 // ns since the tracer's epoch
	kind              spanKind
	label             uint16 // transaction spans: index into tracer labels
	txid              uint64 // attempt spans: the engine's transaction id
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span in memory until the run ends. Each recording
// goroutine owns one spanBuf, so recording takes no lock.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	bufs   []*spanBuf
	labels []string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a new per-goroutine buffer; nil when t is nil (tracing off),
// and every spanBuf method is a no-op on nil.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{t: t, idBase: uint64(len(t.bufs)+1) << 40}
	t.bufs = append(t.bufs, b)
	return b
}

// label interns a transaction type name.
func (t *tracer) label(name string) uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, l := range t.labels {
		if l == name {
			return uint16(i)
		}
	}
	t.labels = append(t.labels, name)
	return uint16(len(t.labels) - 1)
}

// spans returns every recorded span. Call it once all recording goroutines
// have finished.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	for _, b := range t.bufs {
		all = append(all, b.spans...)
	}
	return all
}

// ns converts an instant to the tracer's time base.
func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

type spanBuf struct {
	t      *tracer
	idBase uint64
	next   uint64
	spans  []span
}

// newID reserves a span id, so children recorded before their parent ends
// can name it.
func (b *spanBuf) newID() uint64 {
	if b == nil {
		return 0
	}
	b.next++
	return b.idBase | b.next
}

// add records a finished span with a reserved id.
func (b *spanBuf) add(id, parent, trace uint64, kind spanKind, start, end time.Time) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{id: id, parent: parent, trace: trace, kind: kind,
		start: b.t.ns(start), end: b.t.ns(end)})
}

// setLast annotates the span added last (transaction label, attempt txid).
func (b *spanBuf) setLast(label uint16, txid uint64) {
	if b == nil {
		return
	}
	s := &b.spans[len(b.spans)-1]
	s.label, s.txid = label, txid
}

// selfTime returns s's duration minus the part of it its children cover.
// Overlapping children count once and time outside s is ignored.
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a > curB:
			covered += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return s.dur() - covered
}

// childIndex maps each span id to the indexes of its children.
func childIndex(spans []span) map[uint64][]int {
	idx := make(map[uint64][]int)
	for i, s := range spans {
		if s.parent != 0 {
			idx[s.parent] = append(idx[s.parent], i)
		}
	}
	return idx
}

// writeSpans writes spans as CSV (id,parent,trace,name,label,start_ns,end_ns).
func writeSpans(path string, t *tracer, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,trace,name,label,start_ns,end_ns")
	for _, s := range spans {
		label := ""
		if s.kind == kTransaction && int(s.label) < len(t.labels) {
			label = t.labels[s.label]
		}
		fmt.Fprintf(w, "%d,%d,%d,%s,%s,%d,%d\n", s.id, s.parent, s.trace, kindNames[s.kind], label, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
