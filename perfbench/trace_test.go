package main

import (
	"testing"
	"time"
)

func sp(start, end int64) span { return span{start: start, end: end} }

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		parent   span
		children []span
		want     int64
	}{
		{"no children", sp(0, 100), nil, 100},
		{"one child", sp(0, 100), []span{sp(10, 30)}, 80},
		{"disjoint children", sp(0, 100), []span{sp(10, 20), sp(50, 70)}, 70},
		{"overlapping children count once", sp(0, 100), []span{sp(10, 40), sp(30, 60)}, 50},
		{"nested child inside another", sp(0, 100), []span{sp(10, 60), sp(20, 30)}, 50},
		{"unsorted children", sp(0, 100), []span{sp(50, 70), sp(10, 20)}, 70},
		{"child past the parent is clipped", sp(0, 100), []span{sp(90, 150), sp(-20, 5)}, 85},
		{"child outside the parent", sp(0, 100), []span{sp(200, 300)}, 100},
		{"children cover everything", sp(0, 100), []span{sp(0, 50), sp(50, 100)}, 0},
		{"touching children", sp(0, 100), []span{sp(10, 20), sp(20, 30)}, 80},
	} {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// A nil spanBuf (tracing off) records nothing and does not panic.
func TestNilSpanBuf(t *testing.T) {
	var tr *tracer
	b := tr.buf()
	if b != nil {
		t.Fatal("nil tracer returned a buffer")
	}
	id := b.newID()
	b.add(id, 0, id, kTransaction, time.Now(), time.Now())
	b.setLast(1, 2)
}

// Spans from several buffers get distinct ids and keep their parents.
func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	b1, b2 := tr.buf(), tr.buf()
	now := time.Now()
	p := b1.newID()
	c := b1.newID()
	b1.add(c, p, p, kBegin, now, now.Add(time.Microsecond))
	b1.add(p, 0, p, kTransaction, now, now.Add(2*time.Microsecond))
	b1.setLast(tr.label("new_order"), 0)
	q := b2.newID()
	b2.add(q, 0, q, kArrival, now, now.Add(time.Microsecond))
	spans := tr.spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	ids := map[uint64]bool{}
	for _, s := range spans {
		if ids[s.id] {
			t.Fatalf("duplicate span id %x", s.id)
		}
		ids[s.id] = true
	}
	kids := childIndex(spans)
	if len(kids[p]) != 1 || spans[kids[p][0]].kind != kBegin {
		t.Errorf("children of the transaction: %v", kids[p])
	}
	if tr.labels[spans[1].label] != "new_order" {
		t.Errorf("label %q", tr.labels[spans[1].label])
	}
}
