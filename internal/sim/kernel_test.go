package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// The tests in this file pin the kernel-internals overhaul: pooled events
// with eager timer cancellation, ring-buffer queues that release dequeued
// references, and waits that leave nothing behind when they time out. Each
// regression here corresponds to a leak or tombstone bug in the
// pre-overhaul kernel.

// A WaitFor that times out must leave nothing of the wait behind: the
// process is no longer waiting, holds no timer, and the event queue is
// empty — so a process that times out often but is woken rarely accumulates
// no dead state, and a later Wake cannot reach a wait that has ended.
func TestWaitForTimeoutLeavesNothing(t *testing.T) {
	env := New(1)
	defer env.Close()
	const rounds = 50
	env.Spawn("poller", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			if p.WaitFor(time.Millisecond) {
				t.Error("unexpected wake")
			}
			if p.waiting || p.timer != nil || len(env.events) != 0 {
				t.Errorf("round %d: waiting %v, timer %v, %d events queued after timeout; want none",
					i, p.waiting, p.timer != nil, len(env.events))
			}
		}
	})
	env.Run()
}

// A WaitFor ended by a Wake must remove its deadline timer from the event
// heap immediately. The old kernel left a cancelled tombstone in the heap
// until the deadline, so a long-timeout wait satisfied early kept the
// simulation's event queue (and quiescence horizon) artificially deep: with
// eager removal this run quiesces at 1ms, not at the 1h deadline.
func TestCancelledTimerRemovedFromHeap(t *testing.T) {
	env := New(1)
	defer env.Close()
	waiter := env.Spawn("waiter", func(p *Proc) {
		if !p.WaitFor(time.Hour) {
			t.Error("WaitFor timed out, want the Wake")
		}
	})
	env.At(time.Millisecond, waiter.Wake)
	env.Run()
	if env.Now() != time.Millisecond {
		t.Fatalf("quiesced at %v, want 1ms (cancelled timer retained in heap)", env.Now())
	}
	if len(env.events) != 0 {
		t.Fatalf("%d events left in heap after quiescence", len(env.events))
	}
}

// The event heap must hand events out in exactly (t, seq) order, whatever
// mix of schedules and eager cancellations built it: random sequences —
// over a few instants, so that ties on t are common — are checked against
// a sort, and after every step each queued event's heapIdx must name its
// position.
func TestEventHeapOrder(t *testing.T) {
	order := func(a, b *event) int {
		if a.t != b.t {
			return int(a.t - b.t)
		}
		return int(a.seq) - int(b.seq)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var queued []*event
		var seq uint64
		pop := func() bool {
			want := slices.MinFunc(queued, order)
			if got := h.remove(0); got != want || got.heapIdx != -1 {
				t.Errorf("seed %d: popped (%v, %d), want (%v, %d)", seed, got.t, got.seq, want.t, want.seq)
				return false
			}
			queued = slices.DeleteFunc(queued, func(ev *event) bool { return ev == want })
			return true
		}
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(queued) == 0:
				seq++
				ev := &event{t: time.Duration(rng.Intn(6)), seq: seq}
				h.push(ev)
				queued = append(queued, ev)
			case r < 7:
				k := rng.Intn(len(queued))
				h.remove(queued[k].heapIdx)
				queued = slices.Delete(queued, k, k+1)
			default:
				if !pop() {
					return false
				}
			}
			for i, ev := range h {
				if ev.heapIdx != i {
					t.Errorf("seed %d, step %d: event at %d records heapIdx %d", seed, step, i, ev.heapIdx)
					return false
				}
			}
			if len(h) != len(queued) {
				t.Errorf("seed %d, step %d: heap holds %d events, want %d", seed, step, len(h), len(queued))
				return false
			}
		}
		for len(queued) > 0 {
			if !pop() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Dequeuing from the kernel's queues must release the dequeued reference:
// the old `q = q[1:]` idiom kept the backing array's head slots alive, so
// every value ever queued stayed reachable until the slice reallocated.
func TestDequeueReleasesReferences(t *testing.T) {
	env := New(1)
	defer env.Close()
	for i := 0; i < 4; i++ {
		env.Spawn("short", func(p *Proc) {})
	}
	env.Run()
	for i, slot := range env.ready.buf {
		if slot != nil {
			t.Fatalf("ready ring slot %d still references a finished proc", i)
		}
	}
	// Resource waiter rings must release served waiters too.
	r := NewResource(env, "res", 1)
	done := 0
	for i := 0; i < 3; i++ {
		env.Spawn("user", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(time.Millisecond)
			r.Release(1)
			done++
		})
	}
	env.Run()
	if done != 3 {
		t.Fatalf("served %d resource users, want 3", done)
	}
	for i, w := range r.waiters.buf {
		if w.p != nil {
			t.Fatalf("resource waiter slot %d still references a proc", i)
		}
	}
}

// Close while a process is parked inside WaitFor must kill it cleanly: the
// proc's goroutine exits, the live list empties, and the event heap does not
// panic on the dead process's timer.
func TestCloseDuringInflightWaitFor(t *testing.T) {
	env := New(1)
	env.Spawn("waiter", func(p *Proc) {
		p.WaitFor(time.Hour)
		t.Error("killed waiter resumed past WaitFor")
	})
	env.RunFor(time.Millisecond)
	env.Close()
	if len(env.procs) != 0 {
		t.Fatalf("%d procs alive after Close, want 0", len(env.procs))
	}
}

// Close must reach a process in every state it can be in — parked on a
// timer, in Wait, in WaitFor, in a resource queue, spawned
// but never run, and parking again from a defer while it unwinds — run each
// one's defers exactly once, and leave no coroutine goroutine behind.
func TestCloseStopsEveryState(t *testing.T) {
	before := runtime.NumGoroutine()
	env := New(1)
	res := NewResource(env, "r", 1)
	defers := map[string]int{}
	spawn := func(name string, body func(p *Proc)) {
		env.Spawn(name, func(p *Proc) {
			defer func() { defers[name]++ }()
			body(p)
			t.Errorf("%s resumed past its park", name)
		})
	}
	spawn("timer", func(p *Proc) { p.Sleep(time.Hour) })
	spawn("wait", func(p *Proc) { p.Wait() })
	spawn("timed-wait", func(p *Proc) { p.WaitFor(time.Hour) })
	spawn("holder", func(p *Proc) { res.Acquire(p, 1); p.Sleep(time.Hour) })
	spawn("resource-queue", func(p *Proc) { res.Acquire(p, 1) })
	reparked := 0
	spawn("reparks", func(p *Proc) {
		defer func() {
			reparked++
			p.Sleep(time.Second)
			t.Error("a killed process blocked again from its defer")
		}()
		p.Sleep(time.Hour)
	})
	env.RunFor(time.Millisecond)
	env.Spawn("never-run", func(p *Proc) { t.Error("a process spawned but never run started at Close") })
	env.Close()
	if len(env.procs) != 0 {
		t.Fatalf("%d procs alive after Close, want 0", len(env.procs))
	}
	for _, name := range []string{"timer", "wait", "timed-wait", "holder", "resource-queue", "reparks"} {
		if defers[name] != 1 {
			t.Errorf("%s: defer ran %d times, want 1", name, defers[name])
		}
	}
	if reparked != 1 {
		t.Errorf("re-parking defer ran %d times, want 1", reparked)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after Close, %d before New: a coroutine leaked", after, before)
	}
}

// A process panic other than the kill surfaces from Run on the calling
// goroutine, re-raised with the process's name, where a test or a harness
// can recover it.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	env := New(1)
	defer env.Close()
	env.Spawn("faulty", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"faulty"`) || !strings.Contains(msg, "boom") {
			t.Fatalf("Run panicked with %q, want the process name and its panic value", msg)
		}
	}()
	env.Run()
	t.Fatal("Run returned: the process panic was swallowed")
}

// kernelTrace runs a mixed workload — sleeps, timed waits woken and
// expired, event callbacks, cross-proc wakes, RNG draws — and returns a
// trace of everything that happened. Two runs with one seed must be
// bit-identical: the event free-list and ring buffers are pure memory
// reuse and must not leak into scheduling.
func kernelTrace(seed int64) []string {
	env := New(seed)
	defer env.Close()
	var trace []string
	var queue, side []int
	var consumer, drain *Proc
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(time.Duration(env.Rand().Intn(5)) * time.Millisecond)
			queue = append(queue, i)
			consumer.Wake()
			trace = append(trace, fmt.Sprintf("send %d @%v", i, p.Now()))
		}
	})
	consumer = env.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 20; i++ {
			ok := len(queue) > 0 || p.WaitFor(3*time.Millisecond)
			v := -1
			if ok {
				v, queue = queue[0], queue[1:]
			}
			trace = append(trace, fmt.Sprintf("recv %d %v @%v", v, ok, p.Now()))
			if !ok {
				continue
			}
			side = append(side, v*2)
			drain.Wake()
		}
	})
	drain = env.Spawn("drain", func(p *Proc) {
		for {
			if len(side) == 0 && !p.WaitFor(40*time.Millisecond) {
				return
			}
			trace = append(trace, fmt.Sprintf("side %d @%v", side[0], p.Now()))
			side = side[1:]
		}
	})
	env.After(7*time.Millisecond, func() {
		trace = append(trace, fmt.Sprintf("cb @%v rng=%d", env.Now(), env.Rand().Intn(100)))
	})
	env.Run()
	trace = append(trace, fmt.Sprintf("end @%v", env.Now()))
	return trace
}

func TestPooledKernelDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a := kernelTrace(seed)
		b := kernelTrace(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at %d: %q vs %q", seed, i, a[i], b[i])
			}
		}
	}
}

// The event free-list must actually bound allocation: a steady-state
// sleep/timeout loop reuses pooled events rather than growing the heap or
// the pool. This asserts pool behavior structurally (the alloc ceiling
// itself is asserted in kernel_alloc_test.go, which needs -race off).
func TestEventPoolReuse(t *testing.T) {
	env := New(1)
	defer env.Close()
	env.Spawn("loop", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Millisecond)
			p.WaitFor(time.Millisecond)
		}
	})
	env.Run()
	if n := len(env.freeEvents); n == 0 || n > 8 {
		t.Fatalf("free-list holds %d events after steady-state loop, want a small nonzero pool", n)
	}
	if len(env.events) != 0 {
		t.Fatalf("%d events still queued after quiescence", len(env.events))
	}
}
