package pipeline

import (
	"math"
	"testing"

	"mcd/internal/clock"
	"mcd/internal/queue"
	"mcd/internal/workload"
)

// TestIdleScansSkip checks that the idle marks actually spare work: on a
// memory-bound profile with integer, FP and memory work (em3d: pointer
// chasing over an 8 MB working set), most issue-domain ticks wait on
// in-flight loads, so a clear share of them must skip their
// wakeup/select scan. An invalidation that fired on every tick would
// pass every byte-identity pin and still remove the gain; this catches
// it.
func TestIdleScansSkip(t *testing.T) {
	b, ok := workload.Lookup("em3d")
	if !ok {
		t.Fatal("benchmark em3d missing from catalog")
	}
	c := New(DefaultConfig(), b.Profile.NewGenerator(60_000))
	c.Run(RunOptions{Window: 40_000, Warmup: 20_000})
	for _, d := range []clock.Domain{clock.Integer, clock.FloatingPoint, clock.LoadStore} {
		ticks := c.clks[d].Cycles()
		share := float64(c.idleScans[d]) / float64(ticks)
		t.Logf("%v: %d of %d ticks skipped their scan (%.1f%%)", d, c.idleScans[d], ticks, 100*share)
		if share < 0.5 {
			t.Errorf("%v: only %.1f%% of ticks skipped their scan, want at least 50%%", d, 100*share)
		}
	}
}

// TestLSQDisambiguation drives the load/store issue scan directly. A
// load waits while an older store's address is unresolved, even when
// its own operands are ready; once the store issues, a load to the same
// block forwards from it and a load to another block goes to the cache,
// as far as the memory ports allow.
func TestLSQDisambiguation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemPorts = 2
	c := New(cfg, intProfile(1).NewGenerator(1000))
	c.Start(RunOptions{Window: 1000})
	period := c.periods[clock.LoadStore]
	inf := math.Inf(1)

	// Producer 1 (integer domain) computes the store's address.
	c.ring.Dispatch(1, uint8(clock.Integer))
	for _, e := range []queue.LSQEntry{
		{Seq: 10, IsStore: true, Addr: 0x100, Src1: 1, Src2: queue.None, DoneAt: inf},
		{Seq: 11, Addr: 0x104, Src1: queue.None, Src2: queue.None, DoneAt: inf}, // same block as the store
		{Seq: 12, Addr: 0x8000, Src1: queue.None, Src2: queue.None, DoneAt: inf},
		{Seq: 13, Addr: 0x9000, Src1: queue.None, Src2: queue.None, DoneAt: inf},
	} {
		c.ring.Dispatch(e.Seq, uint8(clock.LoadStore))
		c.lsq.Push(e)
	}
	issued := func() (got [4]bool) {
		for i, e := range c.lsq.Entries() {
			got[i] = e.Issued
		}
		return got
	}

	t0 := 10 * period
	c.lsTick(t0)
	c.lsTick(t0 + period)
	if got := issued(); got != [4]bool{} {
		t.Fatalf("issued %v while the store address was unresolved, want nothing", got)
	}

	c.ring.Complete(1, t0+period)
	t1 := t0 + 4*period
	c.lsTick(t1)
	if got := issued(); got != [4]bool{true, true, false, false} {
		t.Fatalf("after the store resolved: issued %v, want the store and the first load (two ports)", got)
	}
	if got := c.lsq.Entries()[1].DoneAt; got != t1+period {
		t.Errorf("same-block load done at %v, want %v (forwarded from the store)", got, t1+period)
	}

	t2 := t1 + period
	c.lsTick(t2)
	if got := issued(); got != [4]bool{true, true, true, true} {
		t.Fatalf("next tick: issued %v, want every entry", got)
	}
	if got, min := c.lsq.Entries()[2].DoneAt, t2+float64(cfg.L1Lat)*period; got < min {
		t.Errorf("other-block load done at %v, want a cache access (≥ %v)", got, min)
	}
}
