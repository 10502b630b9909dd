// Package sim provides a deterministic discrete-event simulation kernel.
//
// All higher layers (network, database, file system, benchmarks) run as
// cooperative processes on top of this kernel. Exactly one process executes
// at a time, time is virtual, and all scheduling decisions are totally
// ordered by (time, sequence number), so a simulation with a given seed is
// reproducible bit-for-bit.
//
// A process is a runtime coroutine (iter.Pull) that blocks only through the
// kernel's primitives (Sleep, Resource.Acquire, and Wait/WaitFor, which a
// Wake ends). Parking is the coroutine's yield, and the scheduler switches
// straight back into it when the corresponding virtual-time event fires: no
// channel, no run-queue bounce, and never two goroutines runnable at once.
// Work that never blocks can run as a stackless process instead
// (NewStackless): a step function the scheduler calls, on its own stack,
// each time it pops the process.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"time"

	"hopsfscl/internal/trace"
)

// Env is a simulation environment: a virtual clock, an event queue, and the
// set of processes that run against them. Create one with New, spawn
// processes with Spawn, and drive it with Run or RunFor. Environments are
// not safe for concurrent use from multiple OS threads; all interaction
// must happen either before Run or from within simulation processes.
type Env struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	ready  ring[*Proc]
	rng    *rand.Rand
	closed bool

	// procs is every live process, parked or runnable or not yet started:
	// what Close stops. A process leaves it once, when it exits.
	procs []*Proc

	// freeEvents is the event free-list: fired and eagerly-removed events
	// are recycled here instead of being garbage, so the steady-state event
	// queue allocates nothing.
	freeEvents []*event

	// stopAt, when >= 0, bounds RunFor.
	stopAt time.Duration

	// resumes counts switches into a coroutine process, steps calls of a
	// stackless process's step function, and cancelled events removed from
	// the queue before they fired: the kernel's work, per run. seq counts
	// the events scheduled.
	resumes, steps, cancelled uint64
}

// New returns a fresh simulation environment seeded with seed. Two
// environments with the same seed and the same spawned processes execute
// identically.
func New(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed)), stopAt: -1}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Rand returns the environment's deterministic random source. It must only
// be used from the currently running process or from event callbacks, which
// the kernel already serializes.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Spawn registers fn as a new process. The process starts the next time the
// scheduler runs (immediately at the current virtual time if called from a
// running process). The name is used in diagnostics only.
//
// A panic in fn other than the kill surfaces from Run/RunFor/RunUntil on the
// caller's goroutine, re-raised with the process's name and stack.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn on closed Env")
	}
	p := &Proc{env: e, name: name, idx: len(e.procs)}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && r != errKilled {
				panic(fmt.Sprintf("sim: process %q panicked: %v\n%s", name, r, debug.Stack()))
			}
		}()
		fn(p)
	})
	e.procs = append(e.procs, p)
	e.ready.Push(p)
	return p
}

// NewStackless returns a process without a coroutine: each time the
// scheduler pops it from the ready ring it calls step, which runs to
// completion on the scheduler's own stack. step may Defer and may end by
// scheduling its own wake-up (FlushAsync), but it never parks: a kernel
// primitive that would park it panics with its name. The process is not
// runnable until Ready; it has no goroutine, so Close has nothing to stop.
// A panic in step surfaces from Run/RunFor/RunUntil as it is.
func (e *Env) NewStackless(name string, step func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: NewStackless on closed Env")
	}
	return &Proc{env: e, name: name, step: step}
}

// Resumes returns how many times the scheduler has switched into a
// coroutine process. It repeats bit for bit per seed.
func (e *Env) Resumes() uint64 { return e.resumes }

// Steps returns how many times the scheduler has called a stackless
// process's step. It repeats bit for bit per seed.
func (e *Env) Steps() uint64 { return e.steps }

// Scheduled returns how many events — timer wake-ups and callbacks — have
// been queued. It repeats bit for bit per seed.
func (e *Env) Scheduled() uint64 { return e.seq }

// Cancelled returns how many queued events were removed before they fired:
// timers whose wait was satisfied first. It repeats bit for bit per seed.
func (e *Env) Cancelled() uint64 { return e.cancelled }

// At schedules fn to run as an event callback at absolute virtual time t
// (clamped to now). Event callbacks run on the scheduler and must not block;
// they typically wake or spawn processes.
func (e *Env) At(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.schedule(t, fn, nil)
}

// Run drives the simulation until no process is runnable and no event is
// pending (quiescence). Processes waiting forever for a Wake do not prevent
// quiescence.
func (e *Env) Run() {
	e.stopAt = -1
	e.loop()
}

// RunFor drives the simulation for d of virtual time (from the current
// instant) and then stops, leaving the environment resumable. The clock is
// advanced to exactly now+d even if the event queue empties earlier.
func (e *Env) RunFor(d time.Duration) {
	e.stopAt = e.now + d
	e.loop()
	if e.now < e.stopAt {
		e.now = e.stopAt
	}
	e.stopAt = -1
}

// RunUntil drives the simulation in increments of step until cond holds,
// for at most budget of virtual time, and reports whether it held. cond is
// observed at the current instant and after every step, so a condition
// that is already true costs no time, the clock never passes the first
// step boundary at or after the instant it became true, and a condition
// that never holds returns false at exactly now+budget. Harness loops
// waiting on a flag a process sets, or on a deployment going idle, use it.
func (e *Env) RunUntil(cond func() bool, step, budget time.Duration) bool {
	deadline := e.now + budget
	for !cond() {
		if e.now >= deadline {
			return false
		}
		e.RunFor(min(step, deadline-e.now))
	}
	return true
}

// Close stops every live process: one parked in a kernel primitive unwinds
// through its defers (park panics errKilled; parking again while unwinding
// panics again), one that never ran never starts, and every coroutine's
// goroutine is gone when Close returns. The environment must not be used
// afterwards. It is safe to call Close multiple times.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, p := range e.procs {
		p.done = true
		p.stop()
	}
	e.procs = nil
}

func (e *Env) loop() {
	for {
		for e.ready.Len() > 0 {
			p := e.ready.Pop()
			if p.done {
				continue
			}
			e.resumeProc(p)
		}
		if len(e.events) == 0 {
			return
		}
		next := e.events[0].t
		if e.stopAt >= 0 && next > e.stopAt {
			return
		}
		e.now = next
		// Fire all events at this instant in sequence order. Each event is
		// recycled to the free-list once its effect has been captured; pure
		// timer wake-ups (ev.proc set, no fn) ready the process directly
		// without a per-Sleep closure. A timer that fires ends the wait it
		// bounds (WaitFor), so a later Wake finds nothing to wake.
		for len(e.events) > 0 && e.events[0].t == e.now {
			ev := e.events.remove(0)
			fn, p := ev.fn, ev.proc
			e.recycleEvent(ev)
			if p != nil {
				p.waiting, p.timer = false, nil
				e.readyProc(p)
			} else if fn != nil {
				fn()
			}
		}
	}
}

// resumeProc switches into p and returns when it parks or exits; an exited
// process is swap-removed from the live list. A stackless process runs one
// step instead.
func (e *Env) resumeProc(p *Proc) {
	p.queued = false
	if p.step != nil {
		e.steps++
		p.step(p)
		return
	}
	e.resumes++
	if _, parked := p.next(); parked {
		return
	}
	p.done = true
	last := len(e.procs) - 1
	e.procs[p.idx] = e.procs[last]
	e.procs[p.idx].idx = p.idx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// readyProc marks p runnable at the current instant.
func (e *Env) readyProc(p *Proc) {
	if p.done {
		return
	}
	if p.queued {
		panic("sim: proc readied twice: " + p.name)
	}
	p.queued = true
	e.ready.Push(p)
}

// event is one entry in the queue: a timer wake-up (proc set) or a callback
// (fn set). Events are pooled on Env.freeEvents; heapIdx tracks the event's
// position in the heap so a cancelled timer can be removed eagerly instead of
// lingering as a tombstone until its deadline.
type event struct {
	t       time.Duration
	seq     uint64
	fn      func()
	proc    *Proc // set for pure timer wake-ups
	heapIdx int   // position in Env.events, -1 when not queued
}

// schedule takes an event from the free-list (or allocates one), stamps it
// with the next sequence number, fills it in and queues it: a timer wake-up
// for p, or the callback fn. The caller keeps the event only to cancel it.
func (e *Env) schedule(t time.Duration, fn func(), p *Proc) *event {
	e.seq++
	var ev *event
	if n := len(e.freeEvents); n > 0 {
		ev = e.freeEvents[n-1]
		e.freeEvents[n-1] = nil
		e.freeEvents = e.freeEvents[:n-1]
	} else {
		ev = &event{}
	}
	ev.t, ev.seq, ev.fn, ev.proc = t, e.seq, fn, p
	e.events.push(ev)
	return ev
}

// recycleEvent clears an event no longer in the heap and returns it to the
// free-list. Clearing fn/proc matters: a pooled event must not pin a closure
// or a finished process.
func (e *Env) recycleEvent(ev *event) {
	ev.fn, ev.proc = nil, nil
	ev.heapIdx = -1
	e.freeEvents = append(e.freeEvents, ev)
}

// removeEvent eagerly deletes a still-queued event from the heap and
// recycles it: the cancellation path for timers whose wait was satisfied.
func (e *Env) removeEvent(ev *event) {
	if ev.heapIdx >= 0 {
		e.events.remove(ev.heapIdx)
		e.cancelled++
	}
	e.recycleEvent(ev)
}

// eventHeap is the event queue: a binary min-heap under before, each event
// recording its position in heapIdx. (t, seq) is a strict total order, so
// the order events leave the heap does not depend on how it is arranged.
type eventHeap []*event

// before reports whether a fires ahead of b: earlier, or scheduled first.
func (a *event) before(b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// set places ev at position i.
func (h eventHeap) set(i int, ev *event) {
	h[i] = ev
	ev.heapIdx = i
}

// push queues ev.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// remove takes the event at position i out of the heap and returns it; 0 is
// the earliest.
func (h *eventHeap) remove(i int) *event {
	s := *h
	ev, last := s[i], len(s)-1
	if i != last {
		s.set(i, s[last])
	}
	s[last] = nil
	*h = s[:last]
	if i != last && !h.down(i) {
		h.up(i)
	}
	ev.heapIdx = -1
	return ev
}

// up sifts the event at position i towards the root past every later parent.
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h.set(i, h[parent])
		i = parent
	}
	h.set(i, ev)
}

// down sifts the event at position i towards the leaves past every earlier
// child, and reports whether it moved.
func (h eventHeap) down(i int) bool {
	ev, start := h[i], i
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if right := child + 1; right < len(h) && h[right].before(h[child]) {
			child = right
		}
		if !h[child].before(ev) {
			break
		}
		h.set(i, h[child])
		i = child
	}
	h.set(i, ev)
	return i > start
}

var errKilled = fmt.Errorf("sim: process killed")

// Proc is the handle a process uses to interact with the kernel. Each
// process receives its own Proc and must not use another process's.
type Proc struct {
	env  *Env
	name string
	done bool

	// next switches into the process until it parks or exits; yield, valid
	// once the process has started, is the switch back; stop is the kill.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	idx   int // position in env.procs

	// step is a stackless process's body (see NewStackless); nil for a
	// coroutine, which has next, yield and stop instead.
	step func(p *Proc)

	// pending is the accumulated deferred delay (see Defer).
	pending time.Duration

	// span is the process's active trace span: the annotation context that
	// instrumented layers (network hops, 2PC phases) attribute work to.
	// Nil when the process runs outside any traced operation.
	span *trace.Span

	// queued guards against double-insertion into the ready list.
	queued bool

	// waiting is set while the process is parked in Wait or WaitFor and no
	// Wake or timeout has ended the wait yet; timer is WaitFor's deadline
	// while it is still queued, and woken reports whether a Wake ended the
	// last wait.
	waiting, woken bool
	timer          *event
}

// Env returns the environment this process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Rand returns the deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.env.rng }

// Span returns the process's active trace span (nil when untraced).
func (p *Proc) Span() *trace.Span { return p.span }

// SetSpan installs s as the process's active trace span and returns the
// previously active one, so callers can restore it when their scope ends.
// Processes spawned on behalf of a traced operation (commit chains,
// fan-outs) inherit attribution by setting the parent's span explicitly.
func (p *Proc) SetSpan(s *trace.Span) (prev *trace.Span) {
	prev = p.span
	p.span = s
	return prev
}

// Defer adds d to the process's pending virtual delay without blocking.
// Pending delay represents work whose duration is already determined (an
// uncontended CPU service, a network hop): accumulating it and sleeping
// once at the next state-dependent point (Flush, a lock acquisition, a
// Wait) is semantically equivalent for FIFO fluid resources and
// orders of magnitude cheaper than parking per step.
func (p *Proc) Defer(d time.Duration) {
	if d > 0 {
		p.pending += d
	}
}

// EffNow returns the process's effective time: the virtual clock plus its
// pending deferred delay. Fluid resources schedule against effective time.
func (p *Proc) EffNow() time.Duration { return p.env.now + p.pending }

// Flush sleeps off any pending deferred delay, synchronizing the process's
// effective time with the virtual clock. Blocking primitives flush
// automatically.
func (p *Proc) Flush() {
	if p.pending > 0 {
		d := p.pending
		p.pending = 0
		p.Sleep(d)
	}
}

// Ready makes a stackless process runnable at the current instant, at the
// tail of the ready ring — the position a Spawn, or a Wake of a waiting
// process, takes. Readying a process that is already queued panics.
func (p *Proc) Ready() {
	if p.step == nil {
		panic("sim: Ready on coroutine process " + p.name)
	}
	p.env.readyProc(p)
}

// FlushAsync is a stackless process's Flush: it schedules the process's own
// wake-up at the end of its pending deferred delay — the timer event Flush
// would create, with the same sequence number — and clears the delay, but
// does not park; the step returns and the next one runs at the wake-up. It
// reports whether a wake-up was scheduled: with nothing pending the step
// carries on at once, as Flush would.
func (p *Proc) FlushAsync() bool {
	if p.step == nil {
		panic("sim: FlushAsync on coroutine process " + p.name)
	}
	if p.pending <= 0 {
		return false
	}
	d := p.pending
	p.pending = 0
	p.env.schedule(p.env.now+d, nil, p)
	return true
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p.env.now+d, nil, p)
	p.park()
}

// Wait parks the process until another process or an event callback calls
// Wake. Pending deferred delay is flushed first, and a Wake during that
// flush finds the process sleeping and does nothing: a process waiting for
// a condition flushes, then tests the condition, then waits.
func (p *Proc) Wait() {
	p.Flush()
	p.waiting = true
	p.park()
}

// WaitFor is Wait bounded by d: it reports whether a Wake ended the wait
// (true) or d elapsed first (false). A Wake removes the deadline timer from
// the event queue at once; a Wake after the timer fired, even at the same
// instant, finds the wait over and changes nothing.
func (p *Proc) WaitFor(d time.Duration) (woken bool) {
	p.Flush()
	p.waiting, p.woken = true, false
	p.timer = p.env.schedule(p.env.now+max(d, 0), nil, p)
	p.park()
	return p.woken
}

// Wake makes a process parked in Wait or WaitFor runnable at the current
// instant, at the tail of the ready ring. It is a no-op when the process is
// not waiting: running, sleeping, already woken, or timed out. Wake may be
// called from processes or from event callbacks.
func (p *Proc) Wake() {
	if !p.waiting {
		return
	}
	p.waiting, p.woken = false, true
	if p.timer != nil {
		p.env.removeEvent(p.timer)
		p.timer = nil
	}
	p.env.readyProc(p)
}

// park hands control back to the scheduler until the process is resumed.
// A stopped process's yield returns false, now and on every later call, so
// the process unwinds through its defers and cannot block again. A
// stackless process has nothing to park and panics.
func (p *Proc) park() {
	if p.step != nil {
		panic(fmt.Sprintf("sim: stackless process %q parked", p.name))
	}
	if !p.yield(struct{}{}) {
		panic(errKilled)
	}
}
