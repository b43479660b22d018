package queue

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mcd/internal/workload"
)

// anyClass accepts every instruction class; visibleNow is a Wakeup under
// which readiness is controlled purely by each entry's VisibleAt.
var anyClass = ClassMask(0xffff)

func visibleNow(now float64) *Wakeup {
	w := &Wakeup{Ring: NewCompletionRing(1)}
	for d := 0; d < 4; d++ {
		w.SetPeriod(d, 1000)
	}
	w.SetTick(now, 0)
	return w
}

// selectReady is a one-pipe select: SelectReady2 with the second pipe
// closed.
func selectReady(q *IssueQueue, max int, classes ClassMask, w *Wakeup) []Entry {
	out, _ := q.SelectReady2(max, classes, 0, 0, w, nil, nil)
	return out
}

// srcReady is the wakeup rule for one source, read off the operands.
func srcReady(w *Wakeup, src int64) bool {
	ops := w.Operands()
	return w.Now >= ops.SrcAt(src)
}

func entry(seq uint64, visibleAt float64) Entry {
	return Entry{Seq: seq, Src1: None, Src2: None, VisibleAt: visibleAt}
}

func TestIssueQueueCapacity(t *testing.T) {
	q := NewIssueQueue(2)
	if !q.Push(Entry{Seq: 1}) || !q.Push(Entry{Seq: 2}) {
		t.Fatal("pushes into empty queue failed")
	}
	if q.Push(Entry{Seq: 3}) {
		t.Error("push into full queue succeeded")
	}
	if q.Len() != 2 || q.Free() != 0 || q.Cap() != 2 {
		t.Errorf("len/free/cap = %d/%d/%d", q.Len(), q.Free(), q.Cap())
	}
}

func TestIssueQueueSelectOldestFirst(t *testing.T) {
	q := NewIssueQueue(8)
	for i := uint64(0); i < 6; i++ {
		vis := 0.0
		if i%2 == 1 {
			vis = math.Inf(1) // odd seqs not yet visible
		}
		q.Push(entry(i, vis))
	}
	// Only even seqs ready; select at most 2: must pick 0 and 2.
	got := selectReady(q, 2, anyClass, visibleNow(0))
	if len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 2 {
		t.Fatalf("selected %+v, want seqs 0,2", got)
	}
	if q.Len() != 4 {
		t.Errorf("len after select = %d, want 4", q.Len())
	}
	// Remaining order preserved: 1,3,4,5.
	rest := selectReady(q, 10, anyClass, visibleNow(math.Inf(1)))
	want := []uint64{1, 3, 4, 5}
	for i, e := range rest {
		if e.Seq != want[i] {
			t.Errorf("rest[%d].Seq = %d, want %d", i, e.Seq, want[i])
		}
	}
}

func TestIssueQueueSelectNoneReady(t *testing.T) {
	q := NewIssueQueue(4)
	q.Push(entry(9, math.Inf(1)))
	out := selectReady(q, 4, anyClass, visibleNow(100))
	if len(out) != 0 || q.Len() != 1 {
		t.Error("nothing should have been selected")
	}
}

func TestIssueQueueSelectClassMask(t *testing.T) {
	q := NewIssueQueue(8)
	classes := []workload.Class{workload.IntALU, workload.IntMul, workload.Branch, workload.IntALU}
	for i, c := range classes {
		e := entry(uint64(i), 0)
		e.Class = c
		q.Push(e)
	}
	mask := MaskOf(workload.IntALU, workload.Branch)
	got := selectReady(q, 8, mask, visibleNow(0))
	if len(got) != 3 {
		t.Fatalf("selected %d entries, want 3 (ALU, Branch, ALU)", len(got))
	}
	for _, e := range got {
		if e.Class == workload.IntMul {
			t.Errorf("mask %b selected excluded class %v", mask, e.Class)
		}
	}
	if q.Len() != 1 || q.entries[0].Class != workload.IntMul {
		t.Errorf("IntMul entry should remain, queue = %+v", q.entries)
	}
}

func TestWakeupSrcReadyMatchesVisibilityRule(t *testing.T) {
	ring := NewCompletionRing(64)
	ring.Dispatch(7, 2)
	ring.Complete(7, 10_000)
	w := &Wakeup{SyncWindowPS: 300, Ring: ring}
	for d, p := range [4]float64{1000, 800, 1250, 900} {
		w.SetPeriod(d, p)
	}
	w.SetTick(0, 1)

	// Absent source: always ready.
	if !srcReady(w, None) {
		t.Error("absent source not ready")
	}
	// Cross-domain (producer 2 → consumer 1): visible at
	// done − period(producer) + window = 10000 − 1250 + 300 = 9050.
	w.SetTick(9049.9, 1)
	if srcReady(w, 7) {
		t.Error("ready before the synchronization window cleared")
	}
	w.SetTick(9050, 1)
	if !srcReady(w, 7) {
		t.Error("not ready at the visibility boundary")
	}
	// Same-domain: half-cycle guard, done − 0.5×period(producer).
	w.SetTick(10_000-0.5*1250, 2)
	if !srcReady(w, 7) {
		t.Error("same-domain bypass point not honoured")
	}
	w.SetTick(10_000-0.5*1250-0.1, 2)
	if srcReady(w, 7) {
		t.Error("ready before the same-domain bypass point")
	}
	// Single clock: the same half-cycle rule regardless of domains.
	w.SingleClock = true
	w.SetTick(10_000-0.5*1250, 1)
	if !srcReady(w, 7) {
		t.Error("single-clock bypass point not honoured")
	}
	// Never-dispatched producers read as ancient history.
	if !srcReady(w, 55) {
		t.Error("unknown producer should be long complete")
	}
}

func TestIssueQueueReset(t *testing.T) {
	q := NewIssueQueue(4)
	q.Push(entry(1, 0))
	q.Reset(4)
	if q.Len() != 0 || q.Cap() != 4 {
		t.Errorf("reset queue len/cap = %d/%d, want 0/4", q.Len(), q.Cap())
	}
	q.Push(entry(2, 0))
	q.Reset(8) // capacity change must take effect
	if q.Len() != 0 || q.Cap() != 8 || q.Free() != 8 {
		t.Errorf("resized queue len/cap/free = %d/%d/%d", q.Len(), q.Cap(), q.Free())
	}
}

func TestCompletionRingLifecycle(t *testing.T) {
	r := NewCompletionRing(512)
	// Unknown seq reads as long complete.
	if d, _ := r.Lookup(42); !math.IsInf(d, -1) {
		t.Errorf("unknown seq doneAt = %v, want -Inf", d)
	}
	r.Dispatch(42, 2)
	if d, dom := r.Lookup(42); !math.IsInf(d, 1) || dom != 2 {
		t.Errorf("in-flight = (%v,%d), want (+Inf,2)", d, dom)
	}
	r.Complete(42, 1234.5)
	if d, _ := r.Lookup(42); d != 1234.5 {
		t.Errorf("completed doneAt = %v, want 1234.5", d)
	}
	// Overwrite by a much newer seq in the same slot.
	r.Dispatch(42+512, 1)
	if d, _ := r.Lookup(42); !math.IsInf(d, -1) {
		t.Errorf("overwritten slot = %v, want -Inf", d)
	}
	r.Complete(42, 99) // stale complete must be ignored
	if d, _ := r.Lookup(42 + 512); !math.IsInf(d, 1) {
		t.Error("stale Complete corrupted newer entry")
	}
	// Reset returns every slot to the empty state.
	r.Reset()
	if d, dom := r.Lookup(42 + 512); !math.IsInf(d, -1) || dom != 0 {
		t.Errorf("post-reset slot = (%v,%d), want (-Inf,0)", d, dom)
	}
}

func TestCompletionRingPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCompletionRing(100)
}

func TestROBInOrderRetire(t *testing.T) {
	r := NewROB(4)
	for i := uint64(0); i < 4; i++ {
		if !r.Push(ROBEntry{Seq: i, DoneAt: math.Inf(1)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.Push(ROBEntry{Seq: 9}) {
		t.Error("push into full ROB succeeded")
	}
	r.Complete(1, 10) // younger completes first: head must still block
	if h := r.Head(); h.Seq != 0 || !math.IsInf(h.DoneAt, 1) {
		t.Errorf("head = %+v, want seq 0 incomplete", h)
	}
	r.Complete(0, 20)
	if h := r.Head(); h.DoneAt != 20 {
		t.Errorf("head doneAt = %v, want 20", h.DoneAt)
	}
	r.Pop()
	if h := r.Head(); h.Seq != 1 || h.DoneAt != 10 {
		t.Errorf("next head = %+v, want seq 1 done at 10", h)
	}
	r.Pop()
	r.Pop()
	r.Pop()
	if r.Head() != nil || r.Len() != 0 {
		t.Error("ROB should be empty")
	}
	r.Pop() // popping empty is a no-op
}

func TestROBCompleteBounds(t *testing.T) {
	r := NewROB(4)
	r.Push(ROBEntry{Seq: 10, DoneAt: math.Inf(1)})
	r.Push(ROBEntry{Seq: 11, DoneAt: math.Inf(1)})
	r.Complete(9, 1)  // older than the window: ignored
	r.Complete(12, 1) // younger than the window: ignored
	for i := 0; i < 2; i++ {
		if !math.IsInf(r.buf[(r.head+i)%len(r.buf)].DoneAt, 1) {
			t.Fatalf("out-of-window Complete mutated entry %d", i)
		}
	}
	r.Complete(11, 77)
	r.Pop()
	if h := r.Head(); h.Seq != 11 || h.DoneAt != 77 {
		t.Errorf("head = %+v, want seq 11 done at 77", h)
	}
}

func TestROBWraparound(t *testing.T) {
	r := NewROB(3)
	for i := uint64(0); i < 10; i++ {
		if !r.Push(ROBEntry{Seq: i, DoneAt: float64(i)}) {
			t.Fatalf("push %d failed", i)
		}
		if r.Head().Seq != i {
			t.Fatalf("head seq = %d, want %d", r.Head().Seq, i)
		}
		// The direct-index Complete must land on the head slot as the
		// window slides through the backing array.
		r.Complete(i, float64(100+i))
		if r.Head().DoneAt != float64(100+i) {
			t.Fatalf("complete missed wrapped slot for seq %d", i)
		}
		r.Pop()
	}
}

func TestLSQRetireInOrder(t *testing.T) {
	l := NewLSQ(4, 64)
	l.Push(LSQEntry{Seq: 5})
	l.Push(LSQEntry{Seq: 7})
	l.Retire(7) // not head: must be ignored
	if l.Len() != 2 {
		t.Error("out-of-order retire removed an entry")
	}
	l.Retire(5)
	if l.Len() != 1 || l.Entries()[0].Seq != 7 {
		t.Error("head retire failed")
	}
}

func TestLSQCapacity(t *testing.T) {
	l := NewLSQ(1, 64)
	if !l.Push(LSQEntry{Seq: 1}) || l.Push(LSQEntry{Seq: 2}) {
		t.Error("capacity not enforced")
	}
	if l.Free() != 0 || l.Cap() != 1 {
		t.Error("free/cap wrong")
	}
}

func TestLSQReset(t *testing.T) {
	l := NewLSQ(4, 64)
	l.Push(LSQEntry{Seq: 1, Addr: 0x1234})
	l.Reset(4, 32) // same capacity, new disambiguation granularity
	if l.Len() != 0 || l.Cap() != 4 {
		t.Errorf("reset LSQ len/cap = %d/%d, want 0/4", l.Len(), l.Cap())
	}
	l.Push(LSQEntry{Seq: 2, Addr: 0x40})
	if got := l.Entries()[0].Block; got != 0x40>>5 {
		t.Errorf("block = %#x, want %#x (32-byte granularity)", got, 0x40>>5)
	}
}

// Property: SelectReady removes exactly the ready entries (up to max) and
// preserves relative order of the rest. Readiness is encoded through
// VisibleAt, the same field the pipeline's dispatch stamps.
func TestSelectPreservesOrderProperty(t *testing.T) {
	f := func(readyMask uint16, maxSel uint8) bool {
		q := NewIssueQueue(16)
		for i := uint64(0); i < 16; i++ {
			vis := math.Inf(1)
			if readyMask&(1<<i) != 0 {
				vis = 0
			}
			q.Push(entry(i, vis))
		}
		max := int(maxSel % 17)
		got := selectReady(q, max, anyClass, visibleNow(0))
		if len(got) > max {
			return false
		}
		prev := int64(-1)
		for _, e := range got {
			if int64(e.Seq) <= prev || readyMask&(1<<e.Seq) == 0 {
				return false
			}
			prev = int64(e.Seq)
		}
		rest := selectReady(q, 16, anyClass, visibleNow(math.Inf(1)))
		prev = -1
		for _, e := range rest {
			if int64(e.Seq) <= prev {
				return false
			}
			prev = int64(e.Seq)
		}
		return len(got)+len(rest) == 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// naiveSelect2 is the reference wakeup/select: it walks every entry on
// every call, with the visibility rule spelled out from ring lookups
// (pipeline.Core.xvisible's expression) and no idle mark. It returns the
// entries left behind and the two pipes' selections, oldest first.
func naiveSelect2(entries []Entry, max1 int, c1 ClassMask, max2 int, c2 ClassMask,
	ring *CompletionRing, periods [4]float64, singleClock bool, windowPS, now float64, dom uint8) (rest, out1, out2 []Entry) {
	visible := func(src int64) bool {
		if src < 0 {
			return true
		}
		done, from := ring.Lookup(uint64(src))
		if singleClock || from == dom {
			return now >= done-0.5*periods[from]
		}
		return now >= done-periods[from]+windowPS
	}
	for _, e := range entries {
		ready := e.VisibleAt <= now && visible(e.Src1) && visible(e.Src2)
		switch {
		case ready && max1 > 0 && c1.Has(e.Class):
			out1 = append(out1, e)
			max1--
		case ready && max2 > 0 && c2.Has(e.Class) && !(max1 > 0 && c1.Has(e.Class)):
			out2 = append(out2, e)
			max2--
		default:
			rest = append(rest, e)
		}
	}
	return rest, out1, out2
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIdleSelectMatchesNaiveScan drives a seeded random sequence of
// dispatches, completions, period changes, fast-forward shifts and
// advancing time through an issue queue, and on every tick compares the
// idle-skipping select (Idle, then SelectReady2 when not idle) with a
// naive full scan: the selections, and the entries left in the queue and
// their order, must match exactly. The ring is small so dispatches
// overwrite slots that queued entries still name.
func TestIdleSelectMatchesNaiveScan(t *testing.T) {
	const (
		ringSize = 64
		capacity = 12
		ticks    = 20_000
	)
	intALU := MaskOf(workload.IntALU, workload.Branch)
	intMul := MaskOf(workload.IntMul)
	classes := []workload.Class{workload.IntALU, workload.IntALU, workload.Branch, workload.IntMul}
	periodChoices := []float64{1000, 1250, 1600, 2000, 4000}
	for _, singleClock := range []bool{false, true} {
		rng := rand.New(rand.NewSource(42))
		ring := NewCompletionRing(ringSize)
		w := &Wakeup{SingleClock: singleClock, SyncWindowPS: 300, Ring: ring}
		var periods [4]float64
		for d := range periods {
			periods[d] = 1000
			w.SetPeriod(d, periods[d])
		}
		q := NewIssueQueue(capacity)
		var ref []Entry
		var seq uint64
		var inflight []uint64
		now := 0.0
		const dom = 1
		skipped := 0
		for tick := 0; tick < ticks; tick++ {
			// Dispatch: a new seq enters the ring (in some exec domain),
			// the queue, or both — the queue's own Push must retire an
			// idle mark even when the ring does not move.
			for n := rng.Intn(3); n > 0; n-- {
				seq++
				toRing, toQueue := true, true
				switch rng.Intn(4) {
				case 0:
					toQueue = false
				case 1:
					toRing = false
				}
				if toRing {
					ring.Dispatch(seq, uint8(1+rng.Intn(3)))
					inflight = append(inflight, seq)
				}
				if !toQueue || q.Free() == 0 {
					continue
				}
				e := Entry{Seq: seq, Class: classes[rng.Intn(len(classes))], Src1: None, Src2: None,
					VisibleAt: now + float64(rng.Intn(3000))}
				if d := rng.Intn(50); d > 0 && uint64(d) < seq {
					e.Src1 = int64(seq) - int64(d)
				}
				if d := rng.Intn(50); d > 0 && uint64(d) < seq && rng.Intn(2) == 0 {
					e.Src2 = int64(seq) - int64(d)
				}
				q.Push(e)
				ref = append(ref, e)
			}
			// Completions of random in-flight producers.
			for n := rng.Intn(2); n > 0 && len(inflight) > 0; n-- {
				i := rng.Intn(len(inflight))
				ring.Complete(inflight[i], now+float64(1+rng.Intn(20))*1000)
				inflight = append(inflight[:i], inflight[i+1:]...)
			}
			if rng.Intn(200) == 0 {
				d := rng.Intn(4)
				periods[d] = periodChoices[rng.Intn(len(periodChoices))]
				w.SetPeriod(d, periods[d])
			}
			if rng.Intn(500) == 0 {
				dt := float64(rng.Intn(100_000))
				q.ShiftTimes(dt)
				ring.ShiftTimes(dt)
				for i := range ref {
					ref[i].VisibleAt += dt
				}
				now += dt
			}
			now += float64(rng.Intn(1500))

			w.SetTick(now, dom)
			var got1, got2 []Entry
			if q.Idle(w) {
				skipped++
			} else {
				got1, got2 = q.SelectReady2(2, intALU, 1, intMul, w, nil, nil)
			}
			var want1, want2 []Entry
			ref, want1, want2 = naiveSelect2(ref, 2, intALU, 1, intMul, ring, periods, singleClock, 300, now, dom)
			if !sameEntries(got1, want1) || !sameEntries(got2, want2) || !sameEntries(q.entries, ref) {
				t.Fatalf("single=%v tick %d (now %.0f): selected %v/%v, want %v/%v; left %v, want %v",
					singleClock, tick, now, got1, got2, want1, want2, q.entries, ref)
			}
			// Issued entries complete, as the pipeline's issue does.
			for _, e := range append(got1, got2...) {
				ring.Complete(e.Seq, now+float64(1+rng.Intn(4))*periods[dom])
			}
		}
		if skipped < ticks/10 {
			t.Errorf("single=%v: only %d of %d ticks skipped their scan", singleClock, skipped, ticks)
		}
	}
}

// TestIdleMarkInvalidation checks each source that must retire an idle
// mark: the queue's own Push, Reset, CopyFrom and ShiftTimes, a ring
// write, a period change and a different consuming domain — and that
// time reaching the recorded ready time ends it too.
func TestIdleMarkInvalidation(t *testing.T) {
	ring := NewCompletionRing(16)
	w := &Wakeup{SyncWindowPS: 300, Ring: ring}
	for d := 0; d < 4; d++ {
		w.SetPeriod(d, 1000)
	}
	idleQueue := func() *IssueQueue {
		q := NewIssueQueue(4)
		q.Push(Entry{Seq: 2, Src1: 1, Src2: None, VisibleAt: 5000})
		w.SetTick(100, 1)
		if out, _ := q.SelectReady2(1, anyClass, 0, 0, w, nil, nil); len(out) != 0 {
			t.Fatal("setup: the scan must select nothing")
		}
		w.SetTick(200, 1)
		if !q.Idle(w) {
			t.Fatal("setup: an unchanged queue at a later tick must be idle")
		}
		return q
	}
	cases := []struct {
		name string
		act  func(q *IssueQueue)
	}{
		{"push", func(q *IssueQueue) { q.Push(Entry{Seq: 3, Src1: None, Src2: None}) }},
		{"reset", func(q *IssueQueue) { q.Reset(4) }},
		{"copy", func(q *IssueQueue) { q.CopyFrom(q.Clone()) }},
		{"shift", func(q *IssueQueue) { q.ShiftTimes(-10_000) }},
		{"ring complete", func(*IssueQueue) { ring.Complete(1, 150) }},
		{"ring dispatch", func(*IssueQueue) { ring.Dispatch(17, 2) }},
		{"ring shift", func(*IssueQueue) { ring.ShiftTimes(0) }},
		{"ring copy", func(*IssueQueue) { ring.CopyFrom(ring.Clone()) }},
		{"ring reset", func(*IssueQueue) { ring.Reset() }},
		{"period", func(*IssueQueue) { w.SetPeriod(3, 2000) }},
		{"domain", func(*IssueQueue) { w.SetTick(200, 2) }},
		{"time", func(*IssueQueue) { w.SetTick(5000, 1) }},
	}
	for _, tc := range cases {
		// Producer 1 (FP domain) is visible in the integer domain at
		// 3000 − 1000 + 300; the entry itself only at 5000.
		ring.Reset()
		ring.Dispatch(1, 2)
		ring.Complete(1, 3000)
		q := idleQueue()
		tc.act(q)
		if q.Idle(w) {
			t.Errorf("%s: queue still idle", tc.name)
		}
	}
	// A retiring entry has issued; removing it keeps the mark.
	l := NewLSQ(4, 64)
	l.Push(LSQEntry{Seq: 1, Issued: true, Src1: None, Src2: None})
	l.Push(LSQEntry{Seq: 2, Src1: None, Src2: None, VisibleAt: 5000})
	w.SetTick(100, 3)
	l.MarkIdle(w, 5000)
	l.Retire(1)
	if !l.Idle(w) {
		t.Error("LSQ retire dropped the idle mark")
	}
	for _, act := range []func(){
		func() { l.Push(LSQEntry{Seq: 3}) },
		func() { l.ShiftTimes(1) },
		func() { l.CopyFrom(l.Clone()) },
		func() { l.Reset(4, 64) },
	} {
		l.MarkIdle(w, 5000)
		act()
		if l.Idle(w) {
			t.Error("LSQ change kept the idle mark")
		}
	}
}
