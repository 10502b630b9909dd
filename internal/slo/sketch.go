// Package slo is the live objective layer of the engine: windowed latency
// sketches per operation class, a declarative SLO spec evaluated by a
// multi-window burn-rate alerter (Google-SRE style fast-burn/slow-burn
// pairs), and a cluster health model folding layer signals (NN thread-pool
// utilization, NDB node liveness and lock contention, block
// under-replication) into per-component and cluster-wide health states.
//
// Everything is keyed to virtual time and bounded: the same seed and
// schedule always produce a byte-identical alert log, which is what lets
// the chaos engine report time-to-detect deterministically and what will
// let an autoscaler close the loop on these signals. Like trace, the
// package is a leaf over the standard library plus trace itself.
package slo

import (
	"sync"
	"time"

	"hopsfscl/internal/trace"
)

// slot is one fixed-width sub-window of a sketch.
type slot struct {
	index  int64 // absolute slot number (start = index * width); -1 = empty
	hist   trace.Dist
	errors int64
}

// Sketch is a sliding-window latency sketch: a ring of fixed-width
// sub-window slots, each holding a bucketed latency histogram (trace.Dist)
// plus an error count. Observations are keyed to virtual time, so
// advancing the window is driven entirely by the caller's clock — the
// sketch is deterministic and allocation-free after construction.
//
// Memory is bounded by the slot count regardless of traffic. Queries
// merge the slots covering the requested trailing window; the resolution
// of any windowed answer is one slot width.
type Sketch struct {
	mu    sync.Mutex
	width time.Duration // slot width
	slots []slot
	last  int64 // newest absolute slot index seen; -1 before first roll
}

// NewSketch returns a sketch covering a trailing window of the given
// length, divided into the given number of slots (window/slots rounds up
// to at least 1ms of slot width). Defaults: 2s window, 20 slots.
func NewSketch(window time.Duration, slots int) *Sketch {
	if window <= 0 {
		window = 2 * time.Second
	}
	if slots <= 0 {
		slots = 20
	}
	width := window / time.Duration(slots)
	if width < time.Millisecond {
		width = time.Millisecond
	}
	s := &Sketch{width: width, slots: make([]slot, slots), last: -1}
	for i := range s.slots {
		s.slots[i].index = -1
	}
	return s
}

// Span returns the maximum trailing window the sketch can answer for.
func (s *Sketch) Span() time.Duration { return s.width * time.Duration(len(s.slots)) }

// roll advances the ring so the slot containing now is current, resetting
// any slots whose previous tenants expired. Caller holds s.mu.
func (s *Sketch) roll(now time.Duration) *slot {
	idx := int64(now / s.width)
	if idx < s.last {
		// Observations never run backwards on virtual time; a stale caller
		// lands in the current slot rather than corrupting history.
		idx = s.last
	}
	sl := &s.slots[idx%int64(len(s.slots))]
	if sl.index != idx {
		*sl = slot{index: idx}
	}
	s.last = idx
	return sl
}

// Observe records one operation completion at virtual instant now with the
// given end-to-end latency; failed marks it an error.
func (s *Sketch) Observe(now, latency time.Duration, failed bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	sl := s.roll(now)
	sl.hist.Add(latency)
	if failed {
		sl.errors++
	}
	s.mu.Unlock()
}

// Summary is the merged view of a sketch over one trailing window: the
// window's latency histogram (Count, Max, Percentile, OverCount) plus its
// failures.
type Summary struct {
	// Window is the queried window length (clamped to the sketch span).
	Window time.Duration
	trace.Dist
	// Errors counts the failed completions inside the window.
	Errors int64
}

// Rate returns completions per second over the window.
func (m Summary) Rate() float64 {
	if m.Window <= 0 {
		return 0
	}
	return float64(m.Count) / m.Window.Seconds()
}

// ErrorFraction returns the failed share of completions (0 for an empty
// window).
func (m Summary) ErrorFraction() float64 {
	if m.Count == 0 {
		return 0
	}
	return float64(m.Errors) / float64(m.Count)
}

// Window merges the slots covering the trailing window [now-window, now]
// and returns the summary. Windows longer than the sketch span are clamped;
// expired slots contribute nothing.
func (s *Sketch) Window(now, window time.Duration) Summary {
	if s == nil {
		return Summary{}
	}
	if window <= 0 || window > s.Span() {
		window = s.Span()
	}
	out := Summary{Window: window}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := int64(now / s.width)
	if cur < s.last {
		cur = s.last
	}
	// Slots whose *start* lies in (now-window, now] are inside: the current
	// (partial) slot always is, and window/width older complete slots.
	nSlots := int64(window / s.width)
	lo := cur - nSlots
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.index < 0 || sl.index > cur || sl.index <= lo {
			continue
		}
		out.Merge(sl.hist)
		out.Errors += sl.errors
	}
	return out
}
