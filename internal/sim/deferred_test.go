package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestDeferAccumulatesAndFlushes(t *testing.T) {
	env := New(1)
	defer env.Close()
	var at, eff time.Duration
	env.Spawn("p", func(p *Proc) {
		p.Defer(3 * time.Millisecond)
		p.Defer(2 * time.Millisecond)
		eff = p.EffNow()
		p.Flush()
		at = p.Now()
	})
	env.Run()
	if eff != 5*time.Millisecond {
		t.Fatalf("EffNow = %v, want 5ms", eff)
	}
	if at != 5*time.Millisecond {
		t.Fatalf("flushed at %v, want 5ms", at)
	}
}

func TestDeferNegativeIgnored(t *testing.T) {
	env := New(1)
	defer env.Close()
	env.Spawn("p", func(p *Proc) {
		p.Defer(-time.Second)
		if p.EffNow() != p.Now() {
			t.Errorf("pending = %v", p.EffNow()-p.Now())
		}
	})
	env.Run()
}

func TestBlockingPrimitivesAutoFlush(t *testing.T) {
	env := New(1)
	defer env.Close()
	res := NewResource(env, "r", 1)
	var afterWaitFor, afterAcquire, afterWait time.Duration
	waiter := env.Spawn("p", func(p *Proc) {
		p.Defer(4 * time.Millisecond)
		p.WaitFor(0) // must flush the 4ms first
		afterWaitFor = p.Now()
		p.Defer(6 * time.Millisecond)
		res.Acquire(p, 1) // must flush the 6ms first
		afterAcquire = p.Now()
		res.Release(1)
		p.Defer(2 * time.Millisecond)
		p.Wait() // must flush the 2ms first
		afterWait = p.Now()
		if p.EffNow() != p.Now() {
			t.Errorf("%v still pending after Wait", p.EffNow()-p.Now())
		}
	})
	env.At(20*time.Millisecond, waiter.Wake)
	env.Run()
	if afterWaitFor != 4*time.Millisecond {
		t.Fatalf("WaitFor flushed at %v, want 4ms", afterWaitFor)
	}
	if afterAcquire != 10*time.Millisecond {
		t.Fatalf("acquire flushed at %v, want 10ms", afterAcquire)
	}
	if afterWait != 20*time.Millisecond {
		t.Fatalf("woken at %v, want 20ms", afterWait)
	}
}

func TestUseDeferredUncontendedEqualsService(t *testing.T) {
	env := New(1)
	defer env.Close()
	res := NewResource(env, "cpu", 2)
	env.Spawn("p", func(p *Proc) {
		res.UseDeferred(p, 7*time.Millisecond)
		if p.EffNow()-p.Now() != 7*time.Millisecond {
			t.Errorf("pending = %v, want 7ms", p.EffNow()-p.Now())
		}
	})
	env.Run()
}

func TestUseDeferredQueuesInClockFrame(t *testing.T) {
	env := New(1)
	defer env.Close()
	res := NewResource(env, "cpu", 1)
	var d1, d2, d3 time.Duration
	env.Spawn("p", func(p *Proc) {
		// Three services on a single unit scheduled at clock time 0:
		// horizons 10, 20, 30ms.
		res.UseDeferred(p, 10*time.Millisecond)
		d1 = p.EffNow() - p.Now()
		p2 := p // same proc: its own second use queues behind the first
		res.UseDeferred(p2, 10*time.Millisecond)
		d2 = p.EffNow() - p.Now()
		p.Flush()
		// After flushing to t=20ms the unit is free again at the clock.
		res.UseDeferred(p, 10*time.Millisecond)
		d3 = p.EffNow() - p.Now()
	})
	env.Run()
	if d1 != 10*time.Millisecond {
		t.Fatalf("first use pending %v, want 10ms", d1)
	}
	if d2 != 20*time.Millisecond {
		t.Fatalf("second use pending %v, want 20ms (queued behind first)", d2)
	}
	if d3 != 10*time.Millisecond {
		t.Fatalf("third use pending %v, want 10ms (horizon caught up)", d3)
	}
}

func TestUseDeferredCrossProcessQueueing(t *testing.T) {
	env := New(1)
	defer env.Close()
	res := NewResource(env, "cpu", 1)
	var dA, dB time.Duration
	env.Spawn("a", func(p *Proc) {
		res.UseDeferred(p, 10*time.Millisecond)
		dA = p.EffNow() - p.Now()
	})
	env.Spawn("b", func(p *Proc) {
		// Scheduled at the same clock instant, after a: queues behind.
		res.UseDeferred(p, 10*time.Millisecond)
		dB = p.EffNow() - p.Now()
	})
	env.Run()
	if dA != 10*time.Millisecond || dB != 20*time.Millisecond {
		t.Fatalf("pending a=%v b=%v, want 10ms/20ms", dA, dB)
	}
}

// Charge books service from an event callback, with no process: it queues
// on the least-loaded unit in the clock frame, and a process's UseDeferred
// afterwards queues behind it.
func TestChargeBooksWithoutProcess(t *testing.T) {
	env := New(1)
	defer env.Close()
	res := NewResource(env, "recv", 2)
	var ends []time.Duration
	env.At(time.Millisecond, func() {
		for i := 0; i < 3; i++ {
			ends = append(ends, res.Charge(4*time.Millisecond))
		}
	})
	var pending time.Duration
	env.Spawn("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		res.UseDeferred(p, 2*time.Millisecond)
		pending = p.EffNow() - p.Now()
	})
	env.Run()
	want := []time.Duration{5 * time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond}
	if fmt.Sprint(ends) != fmt.Sprint(want) {
		t.Fatalf("charges end at %v, want %v", ends, want)
	}
	// Both units are booked to 5ms and 9ms: p starts at 5ms and ends at 7ms.
	if pending != 6*time.Millisecond {
		t.Fatalf("pending after queueing behind charges = %v, want 6ms", pending)
	}
	if got := res.BusyIntegral(); got != int64(14*time.Millisecond) {
		t.Fatalf("busy = %v, want 14ms", time.Duration(got))
	}
}

func TestBacklogReflectsClockFrameHorizon(t *testing.T) {
	env := New(1)
	defer env.Close()
	res := NewResource(env, "cpu", 1)
	env.Spawn("p", func(p *Proc) {
		if res.Backlog() != 0 {
			t.Error("fresh resource has backlog")
		}
		res.UseDeferred(p, 5*time.Millisecond)
		if got := res.Backlog(); got != 5*time.Millisecond {
			t.Errorf("backlog = %v, want 5ms", got)
		}
		p.Flush()
		if got := res.Backlog(); got != 0 {
			t.Errorf("backlog after horizon = %v, want 0", got)
		}
	})
	env.Run()
}

func TestFluidBusyCountsInUtilization(t *testing.T) {
	env := New(1)
	defer env.Close()
	res := NewResource(env, "cpu", 2)
	env.Spawn("p", func(p *Proc) {
		res.UseDeferred(p, 10*time.Millisecond)
		p.Flush()
	})
	env.Run()
	// 10ms of service on capacity 2 over a 10ms run = 50%.
	util := res.Utilization(0, env.Now(), 0)
	if util < 0.49 || util > 0.51 {
		t.Fatalf("util = %f, want 0.5", util)
	}
}

func TestMixedFluidAndBlockingDeterminism(t *testing.T) {
	run := func() time.Duration {
		env := New(3)
		defer env.Close()
		res := NewResource(env, "cpu", 2)
		done := 0
		var joiner *Proc
		for i := 0; i < 4; i++ {
			env.Spawn("w", func(p *Proc) {
				for j := 0; j < 10; j++ {
					res.UseDeferred(p, time.Duration(1+p.Rand().Intn(3))*time.Millisecond)
					if j%3 == 0 {
						p.Flush()
					}
				}
				p.Flush()
				done++
				joiner.Wake()
			})
		}
		joiner = env.Spawn("join", func(p *Proc) {
			for done < 4 {
				p.Wait()
			}
		})
		env.Run()
		return env.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("mixed runs diverge: %v vs %v", a, b)
	}
}

// TestChargeKeepsLeastLoadedUnit drives random charges at random instants
// against a shadow of the per-unit horizons kept the linear way: each charge
// books the unit with the earliest horizon (ties to the lowest index), and
// after it the resource's cached least-loaded unit is the linear scan's
// choice and Backlog is that unit's horizon past the clock, or zero.
func TestChargeKeepsLeastLoadedUnit(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		env := New(seed)
		rng := rand.New(rand.NewSource(seed))
		res := NewResource(env, "pool", 1+rng.Intn(5))
		shadow := make([]time.Duration, res.Capacity())
		scan := func() int {
			mi := 0
			for i, h := range shadow {
				if h < shadow[mi] {
					mi = i
				}
			}
			return mi
		}
		charges := 0
		for at := time.Duration(0); at < 200*time.Microsecond; at += time.Duration(rng.Intn(8)) * time.Microsecond {
			// Durations on a coarse grid, some not positive, so horizons tie.
			ds := make([]time.Duration, rng.Intn(4))
			for i := range ds {
				ds[i] = time.Duration(rng.Intn(6)-1) * 5 * time.Microsecond
			}
			env.At(at, func() {
				for _, d := range ds {
					want := env.Now()
					if d > 0 {
						mi := scan()
						shadow[mi] = max(shadow[mi], env.Now()) + d
						want = shadow[mi]
					}
					if end := res.Charge(d); end != want {
						t.Fatalf("seed %d: Charge(%v) at %v ends at %v, want %v", seed, d, env.Now(), end, want)
					}
					charges++
					if res.nextFree == nil {
						continue
					}
					if !slices.Equal(res.nextFree, shadow) {
						t.Fatalf("seed %d: horizons %v, want %v", seed, res.nextFree, shadow)
					}
					if mi := scan(); res.least != mi {
						t.Fatalf("seed %d: cached least-loaded unit %d, linear scan %d of %v", seed, res.least, mi, shadow)
					}
					want = max(shadow[scan()]-env.Now(), 0)
					if got := res.Backlog(); got != want {
						t.Fatalf("seed %d: Backlog %v at %v, want %v", seed, got, env.Now(), want)
					}
				}
			})
		}
		env.Run()
		env.Close()
		if charges == 0 {
			t.Fatalf("seed %d: no charges ran", seed)
		}
	}
}
