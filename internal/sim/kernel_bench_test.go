package sim

// Bench-of-the-bench: pins the speed of the simulation kernel itself, so a
// regression in the engine (allocation churn, heap tombstones, wait
// bookkeeping) is caught by CI rather than silently inflating every
// experiment's wall-clock cost. The same cost through a full deployment is
// the spotify_cl33 workload of the benchmark in benchmark/.

import (
	"testing"
	"time"
)

// BenchmarkKernelSleep measures the pure timer path: one process sleeping
// b.N times. Exercises event allocation, heap push/pop, and the ready list.
func BenchmarkKernelSleep(b *testing.B) {
	env := New(1)
	defer env.Close()
	env.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// pingPong runs ops round trips between two processes: a wakes b and waits,
// b waits — in wait — and wakes a.
func pingPong(env *Env, ops int, wait func(p *Proc)) {
	var a *Proc
	b := env.Spawn("b", func(p *Proc) {
		for i := 0; i < ops; i++ {
			wait(p)
			a.Wake()
		}
	})
	a = env.Spawn("a", func(p *Proc) {
		for i := 0; i < ops; i++ {
			b.Wake()
			p.Wait()
		}
	})
	env.Run()
}

// BenchmarkKernelPingPong measures the wait/wake rendezvous path: two
// processes waking each other b.N times. Exercises park/unpark and the
// ready ring.
func BenchmarkKernelPingPong(b *testing.B) {
	env := New(1)
	defer env.Close()
	b.ReportAllocs()
	b.ResetTimer()
	pingPong(env, b.N, (*Proc).Wait)
}

// BenchmarkKernelWaitForWoken measures the timer-cancellation path: a
// process waits with a long timeout and every wait is ended by a Wake, so
// each iteration schedules a timer that never fires. This is the path where
// lazy tombstones would accumulate in the heap.
func BenchmarkKernelWaitForWoken(b *testing.B) {
	env := New(1)
	defer env.Close()
	b.ReportAllocs()
	b.ResetTimer()
	pingPong(env, b.N, func(p *Proc) { p.WaitFor(time.Hour) })
}

// BenchmarkKernelWaitForExpired measures the timeout-firing path: every
// wait expires.
func BenchmarkKernelWaitForExpired(b *testing.B) {
	env := New(1)
	defer env.Close()
	env.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.WaitFor(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkKernelEventCallbacks measures the At/After callback path used by
// simnet deliveries: b.N events scheduled and fired.
func BenchmarkKernelEventCallbacks(b *testing.B) {
	env := New(1)
	defer env.Close()
	var fired int
	env.Spawn("scheduler", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Env().After(time.Microsecond, func() { fired++ })
			p.Sleep(2 * time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
}

// BenchmarkKernelResourceDeferred measures the fluid-resource fast path
// (UseDeferred + Flush), the idiom the NDB thread model runs per request.
func BenchmarkKernelResourceDeferred(b *testing.B) {
	env := New(1)
	defer env.Close()
	res := NewResource(env, "cpu", 2)
	env.Spawn("worker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			res.UseDeferred(p, time.Microsecond)
			p.Flush()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkKernelFanArm measures one fan-out arm the way ndb runs them: a
// collector hands the arm its task, the arm charges deferred delay and
// wakes at its end, then wakes the waiting collector. The worker case runs
// the arm on a pooled coroutine waiting for its next task; the stackless
// case runs it as a two-step stackless process, which takes the same kernel
// positions without switching into a coroutine.
func BenchmarkKernelFanArm(b *testing.B) {
	b.Run("worker", func(b *testing.B) {
		env := New(1)
		defer env.Close()
		var collector *Proc
		task := 0
		worker := env.Spawn("worker", func(p *Proc) {
			for {
				for task == 0 {
					p.Wait()
				}
				task = 0
				p.Defer(time.Microsecond)
				p.Flush()
				collector.Wake()
			}
		})
		collector = env.Spawn("collector", func(p *Proc) {
			for i := 1; i <= b.N; i++ {
				task = i
				worker.Wake()
				p.Wait()
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		env.Run()
	})
	b.Run("stackless", func(b *testing.B) {
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
		collector = env.Spawn("collector", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				arm.Ready()
				p.Wait()
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		env.Run()
	})
}
