package accel_test

import (
	"testing"

	"marvel/internal/accel"
)

// TestWakeupSchedulerMatchesScan steps the production wakeup scheduler and
// the test-only scan reference in lockstep over the pin grid — every
// design × sizing cell, fault-free and under each of its flips — and
// compares engine state, the ready set and the pending counts after every
// Tick.
func TestWakeupSchedulerMatchesScan(t *testing.T) {
	for _, c := range pinGrid(t) {
		l, err := accel.NewSchedulerLockstep(c.d, c.task)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Run(c.budget, nil); err != nil {
			t.Fatalf("%s fault-free: %v", c.name(), err)
		}
		for _, fl := range c.flips {
			arm := func(cl *accel.Cluster) { cl.ScheduleFlip(fl.bank, fl.bit, fl.cycle) }
			if err := l.Run(c.budget, arm); err != nil {
				t.Fatalf("%s flip %+v: %v", c.name(), fl, err)
			}
		}
	}
}
