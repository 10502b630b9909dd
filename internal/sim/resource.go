package sim

import "time"

// Resource models a pool of identical servers (CPU threads, disk spindles,
// link transmission slots). Processes Acquire units, hold them while doing
// virtual work, and Release them. The resource keeps a busy-time integral so
// callers can compute utilization over any window.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	waiters  ring[resWaiter]

	// busy accumulates inUse * elapsed in unit-nanoseconds.
	busy       int64
	lastChange time.Duration

	// Fluid-service state (Charge): per-unit busy horizons, the index of
	// the least-loaded unit (the earliest horizon, ties to the lowest
	// index) and the scheduled-service integral.
	nextFree  []time.Duration
	least     int
	fluidBusy int64
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource returns a resource with the given capacity (units > 0).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: env, name: name, capacity: capacity, lastChange: env.now}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// Acquire blocks p until n units (n <= capacity) are available and takes
// them. Waiters are served FIFO; a large request at the head blocks smaller
// requests behind it (no barging), which keeps service order deterministic.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 {
		return
	}
	p.Flush()
	if n > r.capacity {
		panic("sim: acquire exceeds resource capacity: " + r.name)
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.account()
		r.inUse += n
		return
	}
	r.waiters.Push(resWaiter{p: p, n: n})
	p.park()
}

// Release returns n units and grants queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 {
		return
	}
	r.account()
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: resource over-released: " + r.name)
	}
	for r.waiters.Len() > 0 && r.inUse+r.waiters.Peek().n <= r.capacity {
		w := r.waiters.Pop()
		r.inUse += w.n
		r.env.readyProc(w.p)
	}
}

// Charge books d of fluid service on the least-loaded unit at the clock
// instant, with no process to delay, and returns the instant the service
// ends. Units are fluid FIFO servers ordered by booking time, a faithful
// FIFO approximation of Acquire/Release under load at a fraction of the
// scheduling cost. Shared horizons live in the clock frame: work books
// against the virtual clock, never against one process's effective time, so
// a process running ahead cannot ratchet the queue for others.
//
// Fluid service and Acquire/Release may be mixed on one resource only if
// the caller accepts that fluid work does not see Acquire'd units.
func (r *Resource) Charge(d time.Duration) time.Duration {
	if d <= 0 {
		return r.env.now
	}
	if r.nextFree == nil {
		r.nextFree = make([]time.Duration, r.capacity)
	}
	end := max(r.nextFree[r.least], r.env.now) + d
	r.nextFree[r.least] = end
	r.fluidBusy += int64(d)
	r.least = r.leastLoaded()
	return end
}

// UseDeferred charges d of service for p, starting no earlier than p's
// effective time, and adds the resulting delay (queueing + service) to p's
// pending accumulator instead of blocking.
func (r *Resource) UseDeferred(p *Proc, d time.Duration) {
	end := r.Charge(d)
	eff := p.EffNow()
	p.Defer(max(end, eff+d) - eff)
}

// leastLoaded returns the index of the unit whose horizon ends first.
func (r *Resource) leastLoaded() int {
	mi := 0
	for i, t := range r.nextFree {
		if t < r.nextFree[mi] {
			mi = i
		}
	}
	return mi
}

// Backlog returns how far the least-loaded fluid unit's horizon extends
// past the virtual clock — the queueing delay the next Charge would
// see. Horizons live in the clock frame, so a caller running ahead of the
// clock reads the same value as everyone else.
func (r *Resource) Backlog() time.Duration {
	if r.nextFree == nil {
		return 0
	}
	return max(r.nextFree[r.least]-r.env.now, 0)
}

// BusyIntegral returns the cumulative busy time in unit-nanoseconds up to
// the current instant: the integral of InUse over time. Utilization over a
// window is (BusyIntegral delta) / (capacity * window).
func (r *Resource) BusyIntegral() int64 {
	r.account()
	return r.busy + r.fluidBusy
}

// Utilization returns the average fraction of capacity in use between
// virtual time from and the current instant to, given the BusyIntegral
// snapshot the caller took at from (0 for a window that starts at time
// zero). An empty window reads 0.
func (r *Resource) Utilization(from, to time.Duration, busyAtFrom int64) float64 {
	if to <= from {
		return 0
	}
	delta := r.BusyIntegral() - busyAtFrom
	return float64(delta) / (float64(r.capacity) * float64(to-from))
}

// UtilWindow is one utilization measurement window over a resource: the
// instant it opened and the busy integral at that instant. Mark opens it,
// Read reports the utilization since; a reader that wants consecutive
// windows marks again after each read.
type UtilWindow struct {
	at   time.Duration
	busy int64
}

// Mark opens the window on r at virtual time now (the current instant).
func (w *UtilWindow) Mark(r *Resource, now time.Duration) {
	w.at, w.busy = now, r.BusyIntegral()
}

// Read returns r's utilization from the mark to now (the current instant).
func (w UtilWindow) Read(r *Resource, now time.Duration) float64 {
	return r.Utilization(w.at, now, w.busy)
}

func (r *Resource) account() {
	now := r.env.now
	if now > r.lastChange {
		r.busy += int64(r.inUse) * int64(now-r.lastChange)
		r.lastChange = now
	}
}
