package main

import (
	"sync"
	"testing"
	"time"

	"repro/internal/loadgen"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// The wrapper records how late SleepUntil returned and the intended time of
// each call, in call order.
func TestLagClockRecordsLagAndIntended(t *testing.T) {
	fake := loadgen.NewFakeClock(t0)
	c := newLagClock(fake, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.SleepUntil(t0.Add(time.Millisecond))
		c.SleepUntil(t0.Add(2 * time.Millisecond))
	}()
	for fake.Sleepers() == 0 {
		time.Sleep(10 * time.Microsecond)
	}
	// Wake the first sleeper 1.5ms late: the second deadline has passed too,
	// so its SleepUntil returns at once, 0.5ms late.
	fake.Advance(2500 * time.Microsecond)
	<-done
	if got := c.Intended(0); !got.Equal(t0.Add(time.Millisecond)) {
		t.Errorf("Intended(0) = %v", got)
	}
	if got := c.Intended(1); !got.Equal(t0.Add(2 * time.Millisecond)) {
		t.Errorf("Intended(1) = %v", got)
	}
	if n := c.lag.Count(); n != 2 {
		t.Fatalf("%d lag samples, want 2", n)
	}
	if max := c.lag.Max(); max != 1500*time.Microsecond {
		t.Errorf("max lag %v, want 1.5ms", max)
	}
}

// Driven by loadgen.Run under a fake clock, every Exec sees its arrival's
// intended time, start + i/rate, and the pacer is never late.
func TestLagClockUnderLoadgenRun(t *testing.T) {
	fake := loadgen.NewFakeClock(t0)
	const rate, count = 1000.0, 40
	c := newLagClock(fake, count)
	var mu sync.Mutex
	got := map[int]time.Time{}
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = loadgen.Run(loadgen.Options{Workers: 2, Rate: rate, Count: count, Clock: c},
			func(int) (loadgen.Exec, error) {
				return func(i int) error {
					mu.Lock()
					got[i] = c.Intended(i)
					mu.Unlock()
					return nil
				}, nil
			})
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			if !fake.AdvanceToNextSleeper() {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(got) != count {
		t.Fatalf("%d arrivals executed, want %d", len(got), count)
	}
	first := got[0]
	for i := 0; i < count; i++ {
		if want := first.Add(time.Duration(i) * time.Millisecond); !got[i].Equal(want) {
			t.Errorf("arrival %d intended %v, want %v", i, got[i], want)
		}
	}
	if c.lag.Count() != count || c.lag.Max() != 0 {
		t.Errorf("lag: %d samples, max %v; want %d samples, max 0", c.lag.Count(), c.lag.Max(), count)
	}
}
