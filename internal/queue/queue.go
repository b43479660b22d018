// Package queue implements the decoupling structures of the MCD pipeline:
// the per-domain issue queues whose occupancy drives the Attack/Decay
// algorithm, the load/store queue, the reorder buffer, and the completion
// ring used for cross-domain wakeup with synchronization-window latching.
package queue

import (
	"math"

	"mcd/internal/workload"
)

// None marks an absent source operand.
const None int64 = -1

// Entry is an issue-queue entry. Producer seqs (Src1/Src2) are resolved
// against the CompletionRing at issue time; VisibleAt is the time the
// dispatched entry itself becomes visible in the consuming domain (it
// crossed from the front end through the domain-interface FIFO).
type Entry struct {
	Seq       uint64
	Class     workload.Class
	Src1      int64
	Src2      int64
	VisibleAt float64
	Addr      uint64
}

// ClassMask selects instruction classes by bit; it stands in for the
// per-pipe predicate closures the issue scan used to take, so the
// wakeup/select CAM walk makes no indirect calls (PR 5).
type ClassMask uint16

// MaskOf builds the mask accepting exactly the given classes.
func MaskOf(classes ...workload.Class) ClassMask {
	var m ClassMask
	for _, c := range classes {
		m |= 1 << c
	}
	return m
}

// Has reports whether class c is in the mask.
func (m ClassMask) Has(c workload.Class) bool { return m&(1<<c) != 0 }

// Wakeup carries one domain tick's readiness parameters: the CAM scan of
// every issue structure evaluates the same visibility rule, so the
// pipeline fills one Wakeup per tick and the queues test entries against
// it directly. The period table is indexed by producer domain and only
// changes through SetPeriod — domain periods only move between ticks,
// never inside one — which also bumps the generation that idle marks
// compare against. SingleClock, SyncWindowPS and Ring are set once, when
// the Wakeup is built. The floating-point expressions of Operands and
// SrcAt reproduce pipeline.Core's cross-domain visibility rule
// operation-for-operation, which byte-identical results depend on.
type Wakeup struct {
	Now          float64
	Domain       uint8 // consuming domain
	SingleClock  bool
	SyncWindowPS float64
	Ring         *CompletionRing

	periods [4]float64 // current period of each controllable domain, ps
	gen     uint64     // bumped when a period grows; see SetPeriod
}

// SetPeriod records domain d's current clock period, in ps. Only a
// longer period bumps the generation: a producer's visibility time
// done − sub + add (see Operands) falls as its period grows and rises
// or stays as it shrinks — subtraction rounds monotonically — so a
// shrinking period can only delay readiness, which leaves every idle
// mark sound.
func (w *Wakeup) SetPeriod(d int, ps float64) {
	if ps > w.periods[d] {
		w.gen++
	}
	w.periods[d] = ps
}

// SetTick points the wakeup context at one domain tick: the scan time
// and the consuming domain.
func (w *Wakeup) SetTick(now float64, dom uint8) { w.Now, w.Domain = now, dom }

// Operands are one tick's visibility operands, copied out of the Wakeup
// so a scan keeps them in locals across its walk (the compiler cannot
// otherwise prove that the scan's entry writes don't alias the Wakeup).
//
// sub/add fold the per-producer-domain visibility rule into two tabulated
// operands: a producer in domain p is visible at done − sub[p] + add[p].
// Same-domain (and single-clock) producers use the half-cycle guard with
// add = 0 — adding zero is exact, so the value ordering is unchanged —
// and cross-domain producers use the full producer period plus the
// synchronization window, the exact expression pipeline.Core.xvisible
// evaluates. Keeping the rule as data lets the scan's source test inline.
type Operands struct {
	slots    []ringSlot
	mask     uint64
	sub, add [4]float64
}

// ancient is the visibility time of a producer that is absent or long
// retired.
var ancient = math.Inf(-1)

// Operands returns the visibility operands of the current tick. A scan
// builds them once; a skipped tick never does.
func (w *Wakeup) Operands() Operands {
	o := Operands{slots: w.Ring.slots, mask: w.Ring.mask}
	for p := 0; p < 4; p++ {
		if w.SingleClock || uint8(p) == w.Domain {
			o.sub[p] = 0.5 * w.periods[p]
		} else {
			o.sub[p] = w.periods[p]
			o.add[p] = w.SyncWindowPS
		}
	}
	return o
}

// SrcAt returns the time producer src's result becomes visible in the
// consuming domain. Within a domain (and in the fully synchronous
// configuration) the completion time minus a half-cycle guard is the
// bypass point; across domains the wakeup broadcast launches one producer
// cycle early and must clear the synchronization window (see
// pipeline.Core's clocking-model commentary). Absent, overwritten and
// never-seen producers are ancient history: −Inf. An in-flight producer
// is +Inf.
func (o *Operands) SrcAt(src int64) float64 {
	if src < 0 {
		return ancient
	}
	s := o.slots[uint64(src)&o.mask]
	if s.meta&ringSeqMask != uint64(src) {
		return ancient
	}
	p := (s.meta >> ringSeqBits) & 3 // producers are the three exec domains
	return s.doneAt - o.sub[p] + o.add[p]
}

// idleMark is a scan's proof that the next scans would find nothing: the
// last scan selected nothing and no entry it saw can be ready before
// until. The proof holds while nothing readiness reads has changed — the
// queue's own entries (the owning queue clears the mark on Push, Reset,
// CopyFrom and ShiftTimes), the completion ring (its write count), the
// producer periods (the Wakeup's generation) and the consuming domain.
// Removing entries needs no invalidation: it cannot make another entry
// ready. Between the resets that clear the mark, time, the write count
// and the generation only move forward, so once a mark fails in its own
// domain it never holds again, and a scan that selects or issues need
// not clear it.
type idleMark struct {
	until float64
	ring  uint64
	gen   uint64
	dom   uint8
	valid bool
}

func (m *idleMark) holds(w *Wakeup) bool {
	return m.valid && w.Now < m.until && m.ring == w.Ring.writes && m.gen == w.gen && m.dom == w.Domain
}

func (m *idleMark) set(w *Wakeup, until float64) {
	*m = idleMark{until: until, ring: w.Ring.writes, gen: w.gen, dom: w.Domain, valid: true}
}

// IssueQueue is a small in-order-storage, out-of-order-select queue.
type IssueQueue struct {
	entries []Entry
	cap     int
	idle    idleMark
}

// NewIssueQueue returns a queue with the given capacity.
func NewIssueQueue(capacity int) *IssueQueue {
	return &IssueQueue{entries: make([]Entry, 0, capacity), cap: capacity}
}

// Reset empties the queue for a reused core, reallocating only when the
// capacity changed.
func (q *IssueQueue) Reset(capacity int) {
	if capacity != q.cap || cap(q.entries) < capacity {
		*q = *NewIssueQueue(capacity)
		return
	}
	q.entries = q.entries[:0]
	q.idle.valid = false
}

// Len returns current occupancy; Cap the capacity; Free the open slots.
func (q *IssueQueue) Len() int  { return len(q.entries) }
func (q *IssueQueue) Cap() int  { return q.cap }
func (q *IssueQueue) Free() int { return q.cap - len(q.entries) }

// Push inserts an entry, reporting false when the queue is full.
func (q *IssueQueue) Push(e Entry) bool {
	if len(q.entries) >= q.cap {
		return false
	}
	q.entries = append(q.entries, e)
	q.idle.valid = false
	return true
}

// Clone returns a deep copy — an independent snapshot for checkpointed
// warmup reuse. The copy carries no idle mark.
func (q *IssueQueue) Clone() *IssueQueue {
	c := &IssueQueue{entries: make([]Entry, len(q.entries), q.cap), cap: q.cap}
	copy(c.entries, q.entries)
	return c
}

// CopyFrom restores src's exact state into the receiver, reusing its
// backing array. Both queues must share a capacity.
func (q *IssueQueue) CopyFrom(src *IssueQueue) {
	q.entries = append(q.entries[:0], src.entries...)
	q.cap = src.cap
	q.idle.valid = false
}

// ShiftTimes adds dt to every resident entry's visibility time. The
// sampled fidelity tier calls it (on every queue) when fast-forwarding
// across a skipped interval: the pipeline is frozen, not drained, and
// shifting the in-flight timestamps along with the clock lets detail
// resume mid-steady-state instead of against a burst of stale-ready
// work. Infinity sentinels are unaffected by the addition.
func (q *IssueQueue) ShiftTimes(dt float64) {
	for i := range q.entries {
		q.entries[i].VisibleAt += dt
	}
	q.idle.valid = false
}

// Idle reports whether a select at w.Now would provably select nothing:
// the last scan found nothing ready and recorded, in an idle mark, the
// earliest time any entry can become ready; nothing that readiness reads
// has changed since and w.Now is still before that time. The caller may
// then skip the scan.
func (q *IssueQueue) Idle(w *Wakeup) bool { return q.idle.holds(w) }

// SelectReady2 removes and returns ready entries for two issue pipes in
// one CAM walk — the per-domain tick issues its ALU-class and
// multiplier-class pipes from the same queue. Pipe 1 takes up to max1
// entries whose class is in c1, pipe 2 up to max2 in c2; the class sets
// are disjoint and selection is oldest first. Callers process out1
// completely before out2. Every resident entry is examined, with no
// indirect calls; compaction starts only at the first selected entry, so
// a scan that issues nothing (the common case) writes no entry back and
// instead leaves the idle mark Idle reads.
func (q *IssueQueue) SelectReady2(max1 int, c1 ClassMask, max2 int, c2 ClassMask, w *Wakeup, out1, out2 []Entry) ([]Entry, []Entry) {
	if max1 <= 0 && max2 <= 0 {
		return out1, out2
	}
	ops := w.Operands()
	now := w.Now
	// until bounds from below the time any unselected entry can become
	// ready. Each entry contributes its first unmet threshold; that is
	// all a mark needs, and the scan it lets through refines it.
	until := math.Inf(1)
	wr := -1
	for i := range q.entries {
		e := &q.entries[i]
		pipe := 0
		if max1 > 0 && c1.Has(e.Class) {
			pipe = 1
		} else if max2 > 0 && c2.Has(e.Class) {
			pipe = 2
		}
		if pipe == 0 {
			// No pipe takes this entry now; a later scan with free pipes
			// might, so no idle mark can cover it.
			until = math.Inf(-1)
		} else {
			// wait ends as the first of the entry's ready thresholds —
			// its own visibility, then each source's — that now has not
			// reached, or as the last one when now has reached them all.
			wait := e.VisibleAt
			if now >= wait {
				if wait = ops.SrcAt(e.Src1); now >= wait {
					wait = ops.SrcAt(e.Src2)
				}
			}
			if now >= wait {
				if pipe == 1 {
					out1 = append(out1, *e)
					max1--
				} else {
					out2 = append(out2, *e)
					max2--
				}
				if wr < 0 {
					wr = i
				}
				continue
			}
			if wait < until {
				until = wait
			}
		}
		if wr >= 0 {
			q.entries[wr] = *e
			wr++
		}
	}
	if wr >= 0 {
		q.entries = q.entries[:wr]
	} else {
		q.idle.set(w, until)
	}
	return out1, out2
}

// CompletionRing maps a dynamic instruction seq to its completion time and
// executing domain. Slots are recycled; because the ROB bounds in-flight
// distance well below the ring size, an overwritten slot can only belong
// to a much older instruction, which is by construction long complete.
//
// Each slot is 16 bytes — the seq and domain packed into one word next to
// the completion time — so the wakeup scan's lookups touch one cache line
// instead of three parallel arrays. Seqs are limited to 2⁵⁶−1, ten
// orders of magnitude beyond any simulated window.
//
// writes counts the changes any wakeup test could observe — Dispatch, a
// Complete that lands, Reset, CopyFrom and ShiftTimes — so an idle mark
// can tell that no producer's visibility moved since it was taken.
type CompletionRing struct {
	slots  []ringSlot
	mask   uint64
	writes uint64
}

type ringSlot struct {
	meta   uint64 // seq in the low 56 bits, domain in the high 8
	doneAt float64
}

const (
	ringSeqBits = 56
	ringSeqMask = 1<<ringSeqBits - 1
)

// emptySlot reads as "ancient history": the seq field is all ones, which
// no real dispatch reaches.
var emptySlot = ringSlot{meta: math.MaxUint64, doneAt: math.Inf(-1)}

// NewCompletionRing returns a ring of the given power-of-two size.
func NewCompletionRing(size uint64) *CompletionRing {
	if size == 0 || size&(size-1) != 0 {
		panic("queue: completion ring size must be a power of two")
	}
	r := &CompletionRing{slots: make([]ringSlot, size), mask: size - 1}
	r.Reset()
	return r
}

// Reset empties the ring in place for a reused core.
func (r *CompletionRing) Reset() {
	for i := range r.slots {
		r.slots[i] = emptySlot
	}
	r.writes++
}

// Clone returns a deep copy for checkpointed warmup reuse. The write
// count is not part of the state.
func (r *CompletionRing) Clone() *CompletionRing {
	c := &CompletionRing{slots: make([]ringSlot, len(r.slots)), mask: r.mask}
	copy(c.slots, r.slots)
	return c
}

// CopyFrom restores src's exact state into the receiver, reusing its
// backing array. Both rings must share a size.
func (r *CompletionRing) CopyFrom(src *CompletionRing) {
	copy(r.slots, src.slots)
	r.mask = src.mask
	r.writes++
}

// ShiftTimes adds dt to every slot's completion time, preserving each
// producer's offset from the (fast-forwarded) clock. The ±Inf sentinels
// (in flight / ancient history) are unaffected by the addition.
func (r *CompletionRing) ShiftTimes(dt float64) {
	for i := range r.slots {
		r.slots[i].doneAt += dt
	}
	r.writes++
}

// Dispatch registers seq as in flight in the given domain.
func (r *CompletionRing) Dispatch(seq uint64, domain uint8) {
	r.slots[seq&r.mask] = ringSlot{
		meta:   seq | uint64(domain)<<ringSeqBits,
		doneAt: math.Inf(1),
	}
	r.writes++
}

// Complete records seq's completion time.
func (r *CompletionRing) Complete(seq uint64, t float64) {
	s := &r.slots[seq&r.mask]
	if s.meta&ringSeqMask == seq {
		s.doneAt = t
		r.writes++
	}
}

// Lookup returns the completion time and domain of seq. Overwritten or
// never-seen slots return (-Inf, 0): the producer is ancient history.
func (r *CompletionRing) Lookup(seq uint64) (float64, uint8) {
	s := r.slots[seq&r.mask]
	if s.meta&ringSeqMask != seq {
		return math.Inf(-1), 0
	}
	return s.doneAt, uint8(s.meta >> ringSeqBits)
}

// ROBEntry is one reorder-buffer slot.
type ROBEntry struct {
	Seq    uint64
	DoneAt float64 // +Inf until complete
	Domain uint8
	Class  workload.Class
}

// ROB is the in-order retirement window.
type ROB struct {
	buf        []ROBEntry
	head, size int
}

// NewROB returns a reorder buffer with the given capacity.
func NewROB(capacity int) *ROB {
	return &ROB{buf: make([]ROBEntry, capacity)}
}

// Reset empties the ROB for a reused core, reallocating only when the
// capacity changed.
func (r *ROB) Reset(capacity int) {
	if capacity != len(r.buf) {
		r.buf = make([]ROBEntry, capacity)
	}
	r.head, r.size = 0, 0
}

// Len returns occupancy; Cap capacity; Free open slots.
func (r *ROB) Len() int  { return r.size }
func (r *ROB) Cap() int  { return len(r.buf) }
func (r *ROB) Free() int { return len(r.buf) - r.size }

// Clone returns a deep copy for checkpointed warmup reuse.
func (r *ROB) Clone() *ROB {
	c := &ROB{buf: make([]ROBEntry, len(r.buf)), head: r.head, size: r.size}
	copy(c.buf, r.buf)
	return c
}

// CopyFrom restores src's exact state into the receiver, reusing its
// backing array. Both ROBs must share a capacity.
func (r *ROB) CopyFrom(src *ROB) {
	copy(r.buf, src.buf)
	r.head, r.size = src.head, src.size
}

// ShiftTimes adds dt to every completion time in the buffer (stale slots
// outside the live window included — they are never read). See
// IssueQueue.ShiftTimes.
func (r *ROB) ShiftTimes(dt float64) {
	for i := range r.buf {
		r.buf[i].DoneAt += dt
	}
}

// Push appends an entry in program order, reporting false when full.
func (r *ROB) Push(e ROBEntry) bool {
	if r.size == len(r.buf) {
		return false
	}
	r.buf[(r.head+r.size)%len(r.buf)] = e
	r.size++
	return true
}

// Head returns the oldest entry, or nil when empty.
func (r *ROB) Head() *ROBEntry {
	if r.size == 0 {
		return nil
	}
	return &r.buf[r.head]
}

// Complete marks seq complete at time t. Entries are pushed with
// consecutive seqs, so the slot is head + (seq − head.Seq); when the
// seqs are not consecutive — the sampled fidelity tier's fast-forward
// leaves a seq gap between frozen in-flight entries and post-resume
// dispatches — a bounded scan finds the entry instead. Exact runs never
// take the scan, so the hot path is unchanged.
func (r *ROB) Complete(seq uint64, t float64) {
	if r.size == 0 {
		return
	}
	head := r.buf[r.head].Seq
	if seq < head {
		return
	}
	if off := seq - head; off < uint64(r.size) {
		e := &r.buf[(r.head+int(off))%len(r.buf)]
		if e.Seq == seq {
			e.DoneAt = t
			return
		}
	}
	for i := 0; i < r.size; i++ {
		e := &r.buf[(r.head+i)%len(r.buf)]
		if e.Seq == seq {
			e.DoneAt = t
			return
		}
	}
}

// Pop removes the head entry.
func (r *ROB) Pop() {
	if r.size == 0 {
		return
	}
	r.head = (r.head + 1) % len(r.buf)
	r.size--
}

// LSQEntry is one load/store queue slot, kept in program order from
// dispatch to retirement.
type LSQEntry struct {
	Seq       uint64
	IsStore   bool
	Addr      uint64
	Block     uint64 // Addr >> blockBits, for disambiguation
	Src1      int64
	Src2      int64
	VisibleAt float64
	Issued    bool
	DoneAt    float64 // +Inf until the access (or store address resolve) completes
}

// LSQ is the load/store queue. Its issue scan lives in the pipeline,
// which records an idle scan with MarkIdle; the queue clears the mark
// whenever its own entries change (Push, Reset, CopyFrom, ShiftTimes).
// Retire needs no invalidation: it only removes the oldest entry, which
// has issued.
type LSQ struct {
	entries   []LSQEntry
	cap       int
	blockBits uint
	idle      idleMark
}

// NewLSQ returns a load/store queue with the given capacity and cache
// block size (for store-to-load disambiguation granularity).
func NewLSQ(capacity int, blockBytes int) *LSQ {
	bb := uint(0)
	for 1<<bb < blockBytes {
		bb++
	}
	return &LSQ{entries: make([]LSQEntry, 0, capacity), cap: capacity, blockBits: bb}
}

// Reset empties the queue for a reused core, reallocating only when the
// capacity changed; the disambiguation granularity is re-derived from
// blockBytes either way.
func (l *LSQ) Reset(capacity, blockBytes int) {
	if capacity != l.cap || cap(l.entries) < capacity {
		*l = *NewLSQ(capacity, blockBytes)
		return
	}
	bb := uint(0)
	for 1<<bb < blockBytes {
		bb++
	}
	l.blockBits = bb
	l.entries = l.entries[:0]
	l.idle.valid = false
}

// Len returns occupancy; Cap capacity; Free open slots.
func (l *LSQ) Len() int  { return len(l.entries) }
func (l *LSQ) Cap() int  { return l.cap }
func (l *LSQ) Free() int { return l.cap - len(l.entries) }

// Clone returns a deep copy for checkpointed warmup reuse. The copy
// carries no idle mark.
func (l *LSQ) Clone() *LSQ {
	c := &LSQ{entries: make([]LSQEntry, len(l.entries), l.cap), cap: l.cap, blockBits: l.blockBits}
	copy(c.entries, l.entries)
	return c
}

// CopyFrom restores src's exact state into the receiver, reusing its
// backing array. Both queues must share a capacity.
func (l *LSQ) CopyFrom(src *LSQ) {
	l.entries = append(l.entries[:0], src.entries...)
	l.cap = src.cap
	l.blockBits = src.blockBits
	l.idle.valid = false
}

// ShiftTimes adds dt to every resident entry's visibility and completion
// times. See IssueQueue.ShiftTimes.
func (l *LSQ) ShiftTimes(dt float64) {
	for i := range l.entries {
		l.entries[i].VisibleAt += dt
		l.entries[i].DoneAt += dt
	}
	l.idle.valid = false
}

// Push appends a memory op in program order, reporting false when full.
func (l *LSQ) Push(e LSQEntry) bool {
	if len(l.entries) >= l.cap {
		return false
	}
	e.Block = e.Addr >> l.blockBits
	l.entries = append(l.entries, e)
	l.idle.valid = false
	return true
}

// Entries exposes the backing slice for the issue scan. Callers may mutate
// Issued/DoneAt in place; a scan that issues completes what it issued in
// the completion ring, which retires any idle mark.
func (l *LSQ) Entries() []LSQEntry { return l.entries }

// Idle reports whether an issue scan at w.Now would provably issue
// nothing: the last scan issued nothing and, by MarkIdle, no entry can
// issue before a time w.Now has not reached; nothing readiness reads has
// changed since.
func (l *LSQ) Idle(w *Wakeup) bool { return l.idle.holds(w) }

// MarkIdle records that the issue scan at w.Now issued nothing and that
// no entry can issue before until.
func (l *LSQ) MarkIdle(w *Wakeup, until float64) { l.idle.set(w, until) }

// Retire removes the oldest entry if it matches seq (entries retire in
// program order with the ROB).
func (l *LSQ) Retire(seq uint64) {
	if len(l.entries) > 0 && l.entries[0].Seq == seq {
		l.entries = l.entries[:copy(l.entries, l.entries[1:])]
	}
}
