package sim

import (
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

func TestMailboxSendRecv(t *testing.T) {
	env := New(1)
	defer env.Close()
	mb := NewMailbox[int](env)
	var got []int
	env.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Recv(p))
		}
	})
	env.Spawn("send", func(p *Proc) {
		mb.Send(10)
		p.Sleep(time.Millisecond)
		mb.Send(20)
		mb.Send(30)
	})
	env.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got %v, want [10 20 30]", got)
	}
}

func TestMailboxRecvTimeoutFires(t *testing.T) {
	env := New(1)
	defer env.Close()
	mb := NewMailbox[int](env)
	var ok bool
	var at time.Duration
	env.Spawn("recv", func(p *Proc) {
		_, ok = mb.RecvTimeout(p, 3*time.Millisecond)
		at = p.Now()
	})
	env.Run()
	if ok {
		t.Fatal("recv succeeded, want timeout")
	}
	if at != 3*time.Millisecond {
		t.Fatalf("timed out at %v, want 3ms", at)
	}
}

func TestMailboxRecvTimeoutDelivery(t *testing.T) {
	env := New(1)
	defer env.Close()
	mb := NewMailbox[string](env)
	var v string
	var ok bool
	env.Spawn("recv", func(p *Proc) {
		v, ok = mb.RecvTimeout(p, 10*time.Millisecond)
	})
	env.After(time.Millisecond, func() { mb.Send("hello") })
	env.Run()
	if !ok || v != "hello" {
		t.Fatalf("got (%q,%v), want (hello,true)", v, ok)
	}
	// The cancelled timer must not fire into the process later.
	if env.Now() != 10*time.Millisecond && env.Now() != time.Millisecond {
		t.Fatalf("unexpected end time %v", env.Now())
	}
}

func TestMailboxFIFOAcrossWaiters(t *testing.T) {
	env := New(1)
	defer env.Close()
	mb := NewMailbox[int](env)
	var got [2]int
	env.Spawn("r1", func(p *Proc) { got[0] = mb.Recv(p) })
	env.Spawn("r2", func(p *Proc) { got[1] = mb.Recv(p) })
	env.After(time.Millisecond, func() { mb.Send(1); mb.Send(2) })
	env.Run()
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
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
		mb := NewMailbox[int64](env)
		var out []int64
		for i := 0; i < 4; i++ {
			env.Spawn("w", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(p.Rand().Intn(1000)) * time.Microsecond)
					mb.Send(p.Rand().Int63n(1 << 30))
				}
			})
		}
		env.Spawn("collect", func(p *Proc) {
			for i := 0; i < 20; i++ {
				out = append(out, mb.Recv(p))
			}
		})
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
	mb := NewMailbox[int](env)
	env.Spawn("stuck-recv", func(p *Proc) { mb.Recv(p) })
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

func TestYieldInterleavesFairly(t *testing.T) {
	env := New(1)
	defer env.Close()
	var order []string
	env.Spawn("a", func(p *Proc) {
		for i := 0; i < 2; i++ {
			order = append(order, "a")
			p.Yield()
		}
	})
	env.Spawn("b", func(p *Proc) {
		for i := 0; i < 2; i++ {
			order = append(order, "b")
			p.Yield()
		}
	})
	env.Run()
	want := []string{"a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
