//go:build !race

package sim

import (
	"runtime"
	"testing"
	"time"
)

// Steady-state allocation ceilings for the kernel hot paths. The pooled
// event queue and the ready ring make Sleep, Wait/Wake and WaitFor, woken
// or expired, allocation-free once warm; these tests pin that with a
// hard ceiling so a regression (a new closure, a lost pool) fails CI
// rather than silently eroding throughput. Excluded under -race, whose
// instrumentation allocates.

// mallocsPerOp measures heap mallocs per iteration of a warmed-up
// simulation loop driven by fn(ops).
func mallocsPerOp(ops int, fn func(ops int)) float64 {
	fn(ops / 4) // warm pools
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn(ops)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops)
}

func TestSleepAllocFree(t *testing.T) {
	env := New(1)
	defer env.Close()
	per := mallocsPerOp(20000, func(ops int) {
		env.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < ops; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		env.Run()
	})
	if per > 0.1 {
		t.Fatalf("Sleep allocates %.2f objects/op in steady state, want ~0", per)
	}
}

func TestWaitWakeAllocFree(t *testing.T) {
	env := New(1)
	defer env.Close()
	per := mallocsPerOp(10000, func(ops int) {
		pingPong(env, ops, (*Proc).Wait)
	})
	// Two Wakes, two Waits, and the scheduling round trip per op.
	if per > 0.2 {
		t.Fatalf("Wait/Wake ping-pong allocates %.2f objects/op in steady state, want ~0", per)
	}
}

// WaitFor is allocation-free both when a Wake ends it — the timer leaves
// the heap and returns to the pool — and when its timer expires.
func TestWaitForAllocFree(t *testing.T) {
	t.Run("woken", func(t *testing.T) {
		env := New(1)
		defer env.Close()
		per := mallocsPerOp(10000, func(ops int) {
			pingPong(env, ops, func(p *Proc) {
				if !p.WaitFor(time.Hour) {
					t.Error("WaitFor timed out, want the Wake")
				}
			})
		})
		if per > 0.2 {
			t.Fatalf("a woken WaitFor allocates %.2f objects/op in steady state, want ~0", per)
		}
	})
	t.Run("expired", func(t *testing.T) {
		env := New(1)
		defer env.Close()
		per := mallocsPerOp(20000, func(ops int) {
			env.Spawn("w", func(p *Proc) {
				for i := 0; i < ops; i++ {
					p.WaitFor(time.Microsecond)
				}
			})
			env.Run()
		})
		if per > 0.1 {
			t.Fatalf("an expired WaitFor allocates %.2f objects/op in steady state, want ~0", per)
		}
	})
}

func TestStacklessArmAllocFree(t *testing.T) {
	env := New(1)
	defer env.Close()
	var collector *Proc
	served := false
	arm := env.NewStackless("arm", func(p *Proc) {
		if !served {
			served = true
			p.Defer(time.Microsecond)
			if p.FlushAsync() {
				return
			}
		}
		served = false
		collector.Wake()
	})
	per := mallocsPerOp(20000, func(ops int) {
		collector = env.Spawn("collector", func(p *Proc) {
			for i := 0; i < ops; i++ {
				arm.Ready()
				p.Wait()
			}
		})
		env.Run()
	})
	if per > 0.1 {
		t.Fatalf("a stackless arm allocates %.2f objects/op in steady state, want ~0", per)
	}
}
