package sim

import (
	"slices"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	env := New(1)
	defer env.Close()
	var woke time.Duration
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	env.Run()
	if woke != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
	if env.Now() != 5*time.Millisecond {
		t.Fatalf("env now %v, want 5ms", env.Now())
	}
}

func TestEventOrderingIsStableByTimeThenSeq(t *testing.T) {
	env := New(1)
	defer env.Close()
	var order []int
	env.At(2*time.Millisecond, func() { order = append(order, 2) })
	env.At(1*time.Millisecond, func() { order = append(order, 1) })
	env.At(2*time.Millisecond, func() { order = append(order, 3) })
	env.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Wake readies a process parked in Wait; each Wait needs its own Wake.
func TestWaitWake(t *testing.T) {
	env := New(1)
	defer env.Close()
	var woke []time.Duration
	waiter := env.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Wait()
			woke = append(woke, p.Now())
		}
	})
	env.Spawn("waker", func(p *Proc) {
		waiter.Wake()
		p.Sleep(time.Millisecond)
		waiter.Wake()
	})
	env.Run()
	if !slices.Equal(woke, []time.Duration{0, time.Millisecond}) {
		t.Fatalf("woke at %v, want [0 1ms]", woke)
	}
}

func TestWaitForTimesOut(t *testing.T) {
	env := New(1)
	defer env.Close()
	woken := true
	var at time.Duration
	env.Spawn("waiter", func(p *Proc) {
		woken = p.WaitFor(3 * time.Millisecond)
		at = p.Now()
	})
	env.Run()
	if woken {
		t.Fatal("WaitFor reported a Wake, want timeout")
	}
	if at != 3*time.Millisecond {
		t.Fatalf("timed out at %v, want 3ms", at)
	}
	if env.Scheduled() != 1 || env.Cancelled() != 0 {
		t.Fatalf("%d events scheduled, %d cancelled; want the timer's 1 and 0", env.Scheduled(), env.Cancelled())
	}
}

func TestWaitForWoken(t *testing.T) {
	env := New(1)
	defer env.Close()
	var woken bool
	var at time.Duration
	waiter := env.Spawn("waiter", func(p *Proc) {
		woken = p.WaitFor(10 * time.Millisecond)
		at = p.Now()
	})
	env.After(time.Millisecond, waiter.Wake)
	env.Run()
	if !woken || at != time.Millisecond {
		t.Fatalf("WaitFor returned %v at %v, want true at 1ms", woken, at)
	}
	// The cancelled timer must not fire into the process later.
	if env.Now() != time.Millisecond {
		t.Fatalf("quiesced at %v, want 1ms", env.Now())
	}
	if env.Scheduled() != 2 || env.Cancelled() != 1 {
		t.Fatalf("%d events scheduled, %d cancelled; want 2 (the Wake and the timer) and 1", env.Scheduled(), env.Cancelled())
	}
}

// Wake is a no-op on a process that is not waiting: one that is sleeping,
// one already woken at this instant, one that has not started or has
// finished. None of them is readied twice or woken early.
func TestWakeNotWaitingIsNoop(t *testing.T) {
	env := New(1)
	defer env.Close()
	var at []time.Duration
	sleeper := env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		at = append(at, p.Now())
		p.Wait()
		at = append(at, p.Now())
		p.Sleep(time.Millisecond)
		at = append(at, p.Now())
	})
	env.After(time.Millisecond, sleeper.Wake)
	env.After(3*time.Millisecond, func() {
		sleeper.Wake()
		sleeper.Wake()
	})
	env.Run()
	if !slices.Equal(at, []time.Duration{2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}) {
		t.Fatalf("sleeper ran at %v, want [2ms 3ms 4ms]", at)
	}
	resumes := env.Resumes()
	unstarted := env.Spawn("unstarted", func(p *Proc) {})
	unstarted.Wake()
	sleeper.Wake()
	env.Run()
	if got := env.Resumes() - resumes; got != 1 {
		t.Fatalf("%d resumes after waking an unstarted and a finished process, want the 1 start", got)
	}
}

// A Wake that comes after WaitFor's timer has fired, in the same instant,
// finds the wait over: WaitFor still reports the timeout, and the process
// is not readied a second time.
func TestWakeAfterTimeoutInSameInstant(t *testing.T) {
	env := New(1)
	defer env.Close()
	woken := true
	var at []time.Duration
	var waiter *Proc
	waiter = env.Spawn("waiter", func(p *Proc) {
		woken = p.WaitFor(time.Millisecond)
		at = append(at, p.Now())
		p.Sleep(time.Millisecond)
		at = append(at, p.Now())
	})
	// Scheduled once the waiter has parked, so it fires after the timeout.
	env.Spawn("late-waker", func(p *Proc) { env.At(time.Millisecond, waiter.Wake) })
	env.Run()
	if woken {
		t.Fatal("WaitFor reported the late Wake, want the timeout")
	}
	if !slices.Equal(at, []time.Duration{time.Millisecond, 2 * time.Millisecond}) {
		t.Fatalf("waiter ran at %v, want [1ms 2ms]", at)
	}
}

func TestResourceSerializesContention(t *testing.T) {
	env := New(1)
	defer env.Close()
	res := NewResource(env, "cpu", 1)
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		env.Spawn("worker", func(p *Proc) {
			res.Acquire(p, 1)
			p.Sleep(10 * time.Millisecond)
			res.Release(1)
			ends = append(ends, p.Now())
		})
	}
	env.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceParallelismWithinCapacity(t *testing.T) {
	env := New(1)
	defer env.Close()
	res := NewResource(env, "cpu", 2)
	var ends []time.Duration
	for i := 0; i < 2; i++ {
		env.Spawn("worker", func(p *Proc) {
			res.Acquire(p, 1)
			p.Sleep(10 * time.Millisecond)
			res.Release(1)
			ends = append(ends, p.Now())
		})
	}
	env.Run()
	for _, e := range ends {
		if e != 10*time.Millisecond {
			t.Fatalf("ends = %v, want both 10ms", ends)
		}
	}
}

func TestResourceBusyIntegral(t *testing.T) {
	env := New(1)
	defer env.Close()
	res := NewResource(env, "cpu", 2)
	env.Spawn("worker", func(p *Proc) {
		res.Acquire(p, 1)
		p.Sleep(10 * time.Millisecond)
		res.Release(1)
		p.Sleep(10 * time.Millisecond)
		res.Acquire(p, 2)
		p.Sleep(5 * time.Millisecond)
		res.Release(2)
	})
	env.Run()
	// 1 unit * 10ms + 2 units * 5ms = 20ms unit-time.
	want := int64(20 * time.Millisecond)
	if got := res.BusyIntegral(); got != want {
		t.Fatalf("busy = %d, want %d", got, want)
	}
	util := res.Utilization(0, env.Now(), 0)
	// 20ms unit-time over capacity 2 * 25ms = 0.4.
	if util < 0.39 || util > 0.41 {
		t.Fatalf("util = %f, want 0.4", util)
	}
}

func TestResourceFIFONoBarging(t *testing.T) {
	env := New(1)
	defer env.Close()
	res := NewResource(env, "cpu", 2)
	var order []string
	env.Spawn("a", func(p *Proc) {
		res.Acquire(p, 2)
		p.Sleep(10 * time.Millisecond)
		res.Release(2)
		order = append(order, "a")
	})
	env.Spawn("big", func(p *Proc) {
		p.Sleep(time.Millisecond)
		res.Acquire(p, 2)
		order = append(order, "big")
		res.Release(2)
	})
	env.Spawn("small", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		res.Acquire(p, 1)
		order = append(order, "small")
		res.Release(1)
	})
	env.Run()
	if order[0] != "a" || order[1] != "big" || order[2] != "small" {
		t.Fatalf("order = %v, want [a big small]", order)
	}
}

func TestRunForStopsAndResumes(t *testing.T) {
	env := New(1)
	defer env.Close()
	ticks := 0
	env.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Second)
			ticks++
		}
	})
	env.RunFor(3 * time.Second)
	if ticks != 3 {
		t.Fatalf("ticks = %d after 3s, want 3", ticks)
	}
	if env.Now() != 3*time.Second {
		t.Fatalf("now = %v, want 3s", env.Now())
	}
	env.RunFor(2 * time.Second)
	if ticks != 5 {
		t.Fatalf("ticks = %d after 5s, want 5", ticks)
	}
}

func TestRunUntil(t *testing.T) {
	env := New(1)
	defer env.Close()
	env.RunFor(3 * time.Millisecond)

	// Already true: no time passes.
	if !env.RunUntil(func() bool { return true }, 2*time.Millisecond, time.Second) || env.Now() != 3*time.Millisecond {
		t.Fatalf("true condition: clock at %v, want 3ms", env.Now())
	}

	// Met mid-way: returns at the first step boundary at or after it.
	done := false
	env.Spawn("flag", func(p *Proc) {
		p.Sleep(5 * time.Millisecond) // sets the flag at 8ms
		done = true
	})
	if !env.RunUntil(func() bool { return done }, 2*time.Millisecond, time.Second) || env.Now() != 9*time.Millisecond {
		t.Fatalf("flag set at 8ms: returned at %v, want 9ms", env.Now())
	}

	// Never met: false at exactly now+budget, also when step does not
	// divide the budget.
	if env.RunUntil(func() bool { return false }, 2*time.Millisecond, 7*time.Millisecond) || env.Now() != 16*time.Millisecond {
		t.Fatalf("exhausted budget: clock at %v, want 16ms", env.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		env := New(42)
		defer env.Close()
		var out []int64
		for i := 0; i < 4; i++ {
			env.Spawn("w", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(p.Rand().Intn(1000)) * time.Microsecond)
					out = append(out, p.Rand().Int63n(1<<30))
				}
			})
		}
		env.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lengths %d %d, want 20", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCloseReleasesParkedProcesses(t *testing.T) {
	env := New(1)
	env.Spawn("stuck-wait", func(p *Proc) { p.Wait() })
	env.Spawn("stuck-sleep", func(p *Proc) { p.Sleep(time.Hour) })
	res := NewResource(env, "r", 1)
	env.Spawn("holder", func(p *Proc) { res.Acquire(p, 1); p.Sleep(time.Hour) })
	env.Spawn("stuck-res", func(p *Proc) { p.Sleep(time.Millisecond); res.Acquire(p, 1) })
	env.RunFor(time.Second)
	env.Close()
	if len(env.procs) != 0 {
		t.Fatalf("len(procs) = %d after Close, want 0", len(env.procs))
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	env := New(1)
	defer env.Close()
	var childRan bool
	env.Spawn("parent", func(p *Proc) {
		p.Env().Spawn("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = true
		})
		p.Sleep(2 * time.Millisecond)
	})
	env.Run()
	if !childRan {
		t.Fatal("child did not run")
	}
}
