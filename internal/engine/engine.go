// Package engine provides a deterministic cycle-driven discrete-event
// simulation core.
//
// The engine advances a single global clock measured in Cycle units.
// Events scheduled for the same cycle execute in the order they were
// scheduled, which makes runs with identical inputs bit-for-bit
// reproducible. A second phase per cycle — end-of-cycle finalizers —
// supports synchronous hardware semantics such as link arbitration, where
// every request issued during a cycle must be visible before any grant
// decision is made.
package engine

// Cycle is a point in simulated time, measured in clock cycles.
type Cycle uint64

// Actor handles typed events. Hot simulation paths schedule through
// ScheduleAct/AtAct instead of closure callbacks: the event carries a
// persistent Actor (the model object), a small operation code selecting
// the continuation, and an opaque pointer payload. None of the three
// allocate — interfaces over pointers box nothing — so a steady-state
// transaction path can run without a single heap allocation, where an
// equivalent closure would capture its variables on the heap at every
// scheduling site.
type Actor interface {
	// Act executes the continuation op with payload arg.
	Act(op uint8, arg any)
}

// event is a scheduled callback: either a plain closure (fn) or a typed
// (actor, op, arg) triple. fn takes precedence when non-nil. next links a
// wheel slot to the following slot of its bucket (or of the free list);
// it sits in op's padding, so an event stays 64 bytes.
type event struct {
	when  Cycle
	seq   uint64
	fn    func()
	actor Actor
	op    uint8
	next  int32
	arg   any
}

// less orders events by (when, seq): cycle first, FIFO within a cycle.
func (e event) less(o event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// eventQueue is a typed 4-ary min-heap of events ordered by (when, seq),
// used as the timing wheel's overflow store for events scheduled beyond
// the wheel horizon.
//
// It replaces container/heap, which boxes every event through interface{}
// on each Push and Pop — two heap allocations per event. The typed heap
// keeps events inline in one slice (zero steady-state allocations) and
// the 4-ary layout halves the tree depth, trading slightly more
// comparisons per level for far fewer cache-missing levels.
type eventQueue struct {
	ev []event
}

const heapArity = 4

func (q *eventQueue) len() int { return len(q.ev) }

// head returns the minimum event without removing it. Only valid when
// len() > 0.
func (q *eventQueue) head() *event { return &q.ev[0] }

// push adds an event and restores the heap by sifting it up.
func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !q.ev[i].less(q.ev[parent]) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

// pop removes and returns the minimum event. Only valid when len() > 0.
func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = event{} // release the callback for GC
	q.ev = q.ev[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return top
}

// siftDown places e, displaced from the root, back into heap position.
func (q *eventQueue) siftDown(e event) {
	ev := q.ev
	n := len(ev)
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		// Find the smallest child.
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if ev[c].less(ev[min]) {
				min = c
			}
		}
		if !ev[min].less(e) {
			break
		}
		ev[i] = ev[min]
		i = min
	}
	ev[i] = e
}

// defaultWheelSize is the engine's horizon in cycles. Nearly every
// delay in the simulator is short (port waits, SRAM latencies, NoC
// traversals, page walks, shootdown intervals), so events overwhelmingly
// land within the wheel; only far-future schedules take the overflow
// heap. Must be a power of two.
const defaultWheelSize = 8192

// Engine is a discrete-event simulator clock. The zero value is not ready
// for use; call New.
//
// Events are kept in a timing wheel: one FIFO bucket per cycle in
// [now, now+wheelSize), each a linked list threaded through one shared
// slot array. Because sequence numbers are assigned in
// scheduling order and scheduling only happens while the clock stands
// still, appending to a bucket already yields (when, seq) order — popping
// a bucket front-to-back replays a cycle exactly as the old comparison
// heap did, without the O(log n) sift (and its 64-byte event moves) per
// push and pop on the simulator's hottest path. Events beyond the horizon
// wait in an overflow min-heap and migrate into the wheel as the clock
// advances, before any newer (higher-seq) event can be appended behind
// them, so the total order is preserved.
type Engine struct {
	now Cycle
	seq uint64
	// head[c&wheelMask] and tail[c&wheelMask] index the first and last
	// slot of cycle c's bucket, for c in [now, now+wheelSize); 0 is the
	// empty list. A bucket's slots are linked through event.next in seq
	// order. Freed slots go on the free list and are reused, so the slot
	// array grows only to the peak number of wheel events in flight and
	// the steady state allocates nothing. The horizon costs 8 bytes per
	// cycle.
	head, tail   []int32
	slots        []event // slots[0] is unused, so index 0 can mean "none"
	free         int32   // first free slot, 0 if none
	wheelSize    Cycle
	wheelMask    int
	wheelPending int
	overflow     eventQueue // events at now+wheelSize or later
	finalizers   []func()   // end-of-cycle actions for the current cycle
	// finalizerFree is the drained finalizer buffer from the previous
	// phase, recycled so a steady stream of AtEndOfCycle registrations
	// (one per NoC arbitration round) reallocates nothing.
	finalizerFree []func()
	processed     uint64
	observe       func(when Cycle, seq uint64)
	check         func(when Cycle, seq uint64)
}

// SetObserver installs fn, invoked immediately before every ordinary
// event executes with the event's (cycle, seq). The (cycle, seq) stream
// is the engine's total event order, so regression tests can pin it
// byte-for-byte across refactors of the scheduling machinery. A nil fn
// removes the observer. Finalizers carry no sequence number and are not
// observed.
func (e *Engine) SetObserver(fn func(when Cycle, seq uint64)) {
	e.observe = fn
}

// SetCheck installs fn as the engine's invariant-check hook: like the
// observer it receives every executed event's (cycle, seq) immediately
// before the event runs, but it is a separate slot so golden-order
// tracing (SetObserver) and invariant checking (internal/check) can be
// attached to the same run independently. A nil fn removes the hook.
// With no hook installed the event loop pays one predictable branch.
func (e *Engine) SetCheck(fn func(when Cycle, seq uint64)) {
	e.check = fn
}

// New returns an engine with the clock at cycle 0 and no pending events.
func New() *Engine {
	return newSized(defaultWheelSize)
}

// newSized returns an engine whose timing wheel spans the given horizon,
// which must be a power of two. Tests use a small horizon to push most
// events through the overflow heap.
func newSized(wheelSize int) *Engine {
	if wheelSize <= 0 || wheelSize&(wheelSize-1) != 0 {
		panic("engine: wheel size must be a positive power of two")
	}
	ends := make([]int32, 2*wheelSize)
	return &Engine{
		head:      ends[:wheelSize],
		tail:      ends[wheelSize:],
		slots:     make([]event, 1),
		wheelSize: Cycle(wheelSize),
		wheelMask: wheelSize - 1,
	}
}

// Now reports the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Processed reports how many events have executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending reports how many events are scheduled but not yet executed.
func (e *Engine) Pending() int { return e.wheelPending + e.overflow.len() + len(e.finalizers) }

// Clock is the engine's schedule position: the current cycle and the
// sequence number the next scheduled event will receive. Together they
// pin the (cycle, seq) total order, so restoring a Clock into an empty
// engine makes subsequent schedules indistinguishable from a run that
// reached that position natively.
type Clock struct {
	Now Cycle
	Seq uint64
}

// Clock captures the current schedule position, for checkpointing.
func (e *Engine) Clock() Clock { return Clock{Now: e.now, Seq: e.seq} }

// SetClock restores a schedule position captured by Clock. The engine
// must be empty (no pending events — the wheel is indexed modulo the
// horizon, so warping under in-flight events would corrupt it) and the
// clock may only move forward. Resets nothing else; Processed is
// unchanged.
func (e *Engine) SetClock(c Clock) {
	if e.Pending() > 0 {
		panic("engine: SetClock with pending events")
	}
	if c.Now < e.now {
		panic("engine: SetClock moving backwards")
	}
	e.now = c.Now
	e.seq = c.Seq
}

// ResetProcessed zeroes the processed-event counter, so a measurement
// phase that begins mid-run (after a warmup) reports only its own events.
func (e *Engine) ResetProcessed() { e.processed = 0 }

// Schedule runs fn delay cycles from now. A delay of zero runs fn later in
// the current cycle, before any end-of-cycle finalizers fire.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.At(e.now+delay, fn)
}

// At runs fn at the given absolute cycle. Scheduling in the past panics:
// it indicates a model bug that would otherwise corrupt causality.
func (e *Engine) At(when Cycle, fn func()) {
	if when < e.now {
		panic("engine: event scheduled in the past")
	}
	e.seq++
	e.insert(event{when: when, seq: e.seq, fn: fn})
}

// insert appends an event to the tail of its cycle's bucket, in a slot
// from the free list when there is one, when it is within the horizon; in
// the overflow heap otherwise.
func (e *Engine) insert(ev event) {
	if ev.when >= e.now+e.wheelSize {
		e.overflow.push(ev)
		return
	}
	i := e.free
	if i != 0 {
		e.free = e.slots[i].next
		e.slots[i] = ev
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, ev)
	}
	b := int(ev.when) & e.wheelMask
	if t := e.tail[b]; t != 0 {
		e.slots[t].next = i
	} else {
		e.head[b] = i
	}
	e.tail[b] = i
	e.wheelPending++
}

// drainOverflow migrates every overflow event that has come within the
// horizon into the wheel. It must run each time the clock advances,
// before any event of the new cycle executes: events scheduled from then
// on carry higher sequence numbers than everything drained here, so
// bucket append order stays seq order. The heap pops in (when, seq)
// order, which likewise keeps multiple drained events of one cycle
// sorted.
func (e *Engine) drainOverflow() {
	limit := e.now + e.wheelSize
	for e.overflow.len() > 0 && e.overflow.head().when < limit {
		e.insert(e.overflow.pop())
	}
}

// nextEventCycle returns the cycle of the earliest pending event.
func (e *Engine) nextEventCycle() (Cycle, bool) {
	if e.wheelPending > 0 {
		// All wheel events lie in [now, now+wheelSize), and every event
		// earlier than the overflow heap's horizon is in the wheel, so the
		// first populated bucket from now is the global minimum.
		for c := e.now; ; c++ {
			if e.head[int(c)&e.wheelMask] != 0 {
				return c, true
			}
		}
	}
	if e.overflow.len() > 0 {
		return e.overflow.head().when, true
	}
	return 0, false
}

// ScheduleAct runs a.Act(op, arg) delay cycles from now. It is the
// allocation-free counterpart of Schedule: typed events interleave with
// closure events in one (cycle, seq) order, so the two styles can be
// mixed freely without perturbing determinism.
func (e *Engine) ScheduleAct(delay Cycle, a Actor, op uint8, arg any) {
	e.AtAct(e.now+delay, a, op, arg)
}

// AtAct runs a.Act(op, arg) at the given absolute cycle. Scheduling in
// the past panics, as with At.
func (e *Engine) AtAct(when Cycle, a Actor, op uint8, arg any) {
	if when < e.now {
		panic("engine: event scheduled in the past")
	}
	e.seq++
	e.insert(event{when: when, seq: e.seq, actor: a, op: op, arg: arg})
}

// AtEndOfCycle runs fn after every ordinary event of the current cycle has
// executed. Finalizers run in registration order. A finalizer may schedule
// new events for the current cycle; the engine keeps alternating between
// event and finalizer phases until the cycle quiesces.
func (e *Engine) AtEndOfCycle(fn func()) {
	e.finalizers = append(e.finalizers, fn)
}

// step executes every event and finalizer for the next populated cycle.
// It reports false when nothing remains.
func (e *Engine) step() bool {
	if e.wheelPending == 0 && e.overflow.len() == 0 && len(e.finalizers) == 0 {
		return false
	}
	if len(e.finalizers) == 0 {
		if next, ok := e.nextEventCycle(); ok && next > e.now {
			e.now = next
		}
	}
	e.drainOverflow()
	// Alternate between draining same-cycle events and running
	// finalizers until the cycle produces no further work.
	bi := int(e.now) & e.wheelMask
	for {
		ran := false
		// The current bucket is in seq order. Each event is unlinked
		// (and its slot freed) before it runs, so same-cycle events it
		// schedules land behind the cursor and run in this loop. Freed
		// slots keep their stale payloads: those are the model's own
		// long-lived actors and free-listed transaction objects, so
		// nothing leaks, and skipping the clear keeps a 64-byte memclr
		// and its pointer write barriers out of the hottest loop in the
		// simulator.
		for i := e.head[bi]; i != 0; i = e.head[bi] {
			ev := e.slots[i]
			e.head[bi] = ev.next
			if ev.next == 0 {
				e.tail[bi] = 0
			}
			e.slots[i].next = e.free
			e.free = i
			e.wheelPending--
			e.processed++
			if e.observe != nil {
				e.observe(e.now, ev.seq)
			}
			if e.check != nil {
				e.check(e.now, ev.seq)
			}
			if ev.fn != nil {
				ev.fn()
			} else {
				ev.actor.Act(ev.op, ev.arg)
			}
			ran = true
		}
		if len(e.finalizers) > 0 {
			// Swap in the recycled buffer before running: finalizers may
			// register new finalizers for the same cycle, which land in
			// the other buffer while this one drains.
			fns := e.finalizers
			e.finalizers = e.finalizerFree[:0]
			for i, fn := range fns {
				e.processed++
				fns[i] = nil // release the callback for GC
				fn()
			}
			e.finalizerFree = fns[:0]
			ran = true
		}
		if !ran {
			return true
		}
	}
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.step() {
	}
}

// RunUntil executes events with cycle <= limit. Events beyond the limit
// remain queued and the clock stops at the limit (or at the last processed
// event, whichever is later).
func (e *Engine) RunUntil(limit Cycle) {
	for {
		if e.wheelPending == 0 && e.overflow.len() == 0 && len(e.finalizers) == 0 {
			return
		}
		if len(e.finalizers) == 0 {
			if next, ok := e.nextEventCycle(); ok && next > limit {
				return
			}
		}
		e.step()
	}
}
