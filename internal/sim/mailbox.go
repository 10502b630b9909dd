package sim

import "time"

// Mailbox is an unbounded FIFO queue connecting processes. Sends never
// block; receives block the calling process until a value arrives. A
// mailbox may have many senders and many receivers; waiting receivers are
// served in FIFO order.
//
// The queue is a ring buffer (dequeued slots are zeroed and reused, so
// delivered values are not retained) and waiters form an intrusive doubly
// linked list of pooled nodes: a timed-out waiter unlinks itself
// immediately and a wait satisfied by Send removes its timer from the
// event heap eagerly, so neither the waiter list nor the heap accumulates
// dead entries between rare sends.
type Mailbox[T any] struct {
	env *Env
	q   ring[T]

	// whead/wtail are the FIFO waiter list; free is the waiter free-list
	// (singly linked through next).
	whead, wtail *mboxWaiter[T]
	free         *mboxWaiter[T]
}

type mboxWaiter[T any] struct {
	p        *Proc
	v        T
	got      bool
	timedOut bool
	timer    *event
	next     *mboxWaiter[T]
	prev     *mboxWaiter[T]
	// timeoutFn is built once per node and captures the node itself, so a
	// pooled waiter's timeout schedules without allocating a closure. It is
	// only ever reachable from a timer event that is eagerly removed before
	// the node is recycled, so a reused node cannot receive a stale firing.
	timeoutFn func()
}

// NewMailbox returns an empty mailbox bound to env.
func NewMailbox[T any](env *Env) *Mailbox[T] {
	return &Mailbox[T]{env: env}
}

// newWaiter takes a waiter node for p from the free-list or allocates one.
func (m *Mailbox[T]) newWaiter(p *Proc) *mboxWaiter[T] {
	w := m.free
	if w != nil {
		m.free = w.next
		w.next = nil
		w.got, w.timedOut = false, false
	} else {
		w = &mboxWaiter[T]{}
		w.timeoutFn = func() {
			if w.got || w.timedOut {
				return
			}
			w.timedOut = true
			w.timer = nil // the event fired; the loop recycles it
			m.unlink(w)
			m.env.readyProc(w.p)
		}
	}
	w.p = p
	return w
}

// recycleWaiter zeroes a node's value and process (so the pool retains
// neither) and returns it to the free-list. Only the owning process calls
// this, after it has read v/timedOut back out.
func (m *Mailbox[T]) recycleWaiter(w *mboxWaiter[T]) {
	var zero T
	w.v = zero
	w.p = nil
	w.next = m.free
	w.prev = nil
	m.free = w
}

// pushWaiter appends w at the tail of the waiter list.
func (m *Mailbox[T]) pushWaiter(w *mboxWaiter[T]) {
	w.prev = m.wtail
	if m.wtail != nil {
		m.wtail.next = w
	} else {
		m.whead = w
	}
	m.wtail = w
}

// unlink removes w from the waiter list (no-op if already removed).
func (m *Mailbox[T]) unlink(w *mboxWaiter[T]) {
	if w.prev != nil {
		w.prev.next = w.next
	} else if m.whead == w {
		m.whead = w.next
	} else {
		return // not linked
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else if m.wtail == w {
		m.wtail = w.prev
	}
	w.next, w.prev = nil, nil
}

// Send enqueues v, waking the oldest waiting receiver if any. Send may be
// called from processes or from event callbacks.
func (m *Mailbox[T]) Send(v T) {
	for w := m.whead; w != nil; w = m.whead {
		m.unlink(w)
		if w.got || w.timedOut || w.p == nil || w.p.done {
			// Defensive: satisfied and timed-out waiters unlink themselves
			// eagerly, so live lists never contain them.
			continue
		}
		w.v = v
		w.got = true
		if w.timer != nil {
			m.env.removeEvent(w.timer)
			w.timer = nil
		}
		m.env.readyProc(w.p)
		return
	}
	m.q.Push(v)
}

// Recv blocks p until a value is available and returns it. Pending
// deferred delay is flushed first.
func (m *Mailbox[T]) Recv(p *Proc) T {
	p.Flush()
	if m.q.Len() > 0 {
		return m.q.Pop()
	}
	w := m.newWaiter(p)
	m.pushWaiter(w)
	p.park()
	v := w.v
	m.recycleWaiter(w)
	return v
}

// RecvTimeout blocks p until a value arrives or d elapses. The second
// result reports whether a value was received. Pending deferred delay is
// flushed first.
func (m *Mailbox[T]) RecvTimeout(p *Proc, d time.Duration) (T, bool) {
	p.Flush()
	if m.q.Len() > 0 {
		return m.q.Pop(), true
	}
	w := m.newWaiter(p)
	w.timer = m.env.schedule(m.env.now+d, w.timeoutFn, nil)
	m.pushWaiter(w)
	p.park()
	v, timedOut := w.v, w.timedOut
	m.recycleWaiter(w)
	if timedOut {
		var zero T
		return zero, false
	}
	return v, true
}

// Len returns the number of queued (undelivered) values.
func (m *Mailbox[T]) Len() int { return m.q.Len() }

// waiterCount returns the length of the live waiter list (test hook for
// the timed-out-waiter leak regression).
func (m *Mailbox[T]) waiterCount() int {
	n := 0
	for w := m.whead; w != nil; w = w.next {
		n++
	}
	return n
}
