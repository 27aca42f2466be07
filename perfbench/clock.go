package main

import (
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
)

// lagClock wraps the clock loadgen.Run paces with. loadgen's pacer calls
// SleepUntil exactly once per arrival, in arrival order, with that
// arrival's intended send time; the wrapper records how late each wake-up
// was (the generator's own lag) and remembers the intended times, so an
// Exec can time its queue wait and its latency from them.
type lagClock struct {
	loadgen.Clock
	lag      loadgen.Hist
	base     time.Time
	intended []atomic.Int64 // arrival i: intended time as ns since base
	n        atomic.Int64
}

// newLagClock wraps inner for a run of the given number of arrivals.
func newLagClock(inner loadgen.Clock, arrivals int) *lagClock {
	return &lagClock{Clock: inner, base: inner.Now(), intended: make([]atomic.Int64, arrivals)}
}

// SleepUntil implements loadgen.Clock.
func (c *lagClock) SleepUntil(t time.Time) {
	c.Clock.SleepUntil(t)
	c.lag.Record(c.Clock.Now().Sub(t))
	if i := c.n.Add(1) - 1; i < int64(len(c.intended)) {
		c.intended[i].Store(int64(t.Sub(c.base)))
	}
}

// Intended returns arrival i's intended send time. The pacer stores it
// before it queues the arrival, and the queue hand-off orders that store
// before the worker's call.
func (c *lagClock) Intended(i int) time.Time {
	return c.base.Add(time.Duration(c.intended[i].Load()))
}
