package sim

// Bench-of-the-bench: pins the speed of the simulation kernel itself, so a
// regression in the engine (allocation churn, heap tombstones, mailbox
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

// BenchmarkKernelPingPong measures the mailbox rendezvous path: two
// processes exchanging b.N messages over two mailboxes. Exercises waiter
// registration, park/unpark, and queue push/pop.
func BenchmarkKernelPingPong(b *testing.B) {
	env := New(1)
	defer env.Close()
	req := NewMailbox[int](env)
	resp := NewMailbox[int](env)
	env.Spawn("server", func(p *Proc) {
		for {
			v := req.Recv(p)
			if v < 0 {
				return
			}
			resp.Send(v)
		}
	})
	env.Spawn("client", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			req.Send(i)
			resp.Recv(p)
		}
		req.Send(-1)
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkKernelRecvTimeoutSatisfied measures the timer-cancellation path:
// a server waits with a long timeout and every wait is satisfied by a send,
// so each iteration schedules a timer that never fires. This is the path
// where lazy tombstones accumulate in the heap and leaked waiters pile up.
func BenchmarkKernelRecvTimeoutSatisfied(b *testing.B) {
	env := New(1)
	defer env.Close()
	mb := NewMailbox[int](env)
	env.Spawn("server", func(p *Proc) {
		for {
			v, ok := mb.RecvTimeout(p, time.Hour)
			if !ok || v < 0 {
				return
			}
		}
	})
	env.Spawn("client", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			mb.Send(i)
			p.Sleep(time.Microsecond)
		}
		mb.Send(-1)
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkKernelRecvTimeoutExpired measures the timeout-firing path: every
// wait expires. This is the path where timed-out waiters leak in the
// mailbox's waiter list when sends are rare.
func BenchmarkKernelRecvTimeoutExpired(b *testing.B) {
	env := New(1)
	defer env.Close()
	mb := NewMailbox[int](env)
	env.Spawn("server", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			mb.RecvTimeout(p, time.Microsecond)
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
// wakes at its end, then delivers to the collector's mailbox. The worker
// case runs the arm on a pooled coroutine parked on its task mailbox; the
// stackless case runs it as a two-step stackless process, which takes the
// same kernel positions without switching into a coroutine.
func BenchmarkKernelFanArm(b *testing.B) {
	b.Run("worker", func(b *testing.B) {
		env := New(1)
		defer env.Close()
		tasks, results := NewMailbox[int](env), NewMailbox[int](env)
		env.Spawn("worker", func(p *Proc) {
			for {
				v := tasks.Recv(p)
				p.Defer(time.Microsecond)
				p.Flush()
				results.Send(v)
			}
		})
		env.Spawn("collector", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				tasks.Send(i)
				results.Recv(p)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		env.Run()
	})
	b.Run("stackless", func(b *testing.B) {
		env := New(1)
		defer env.Close()
		results := NewMailbox[int](env)
		task, served := 0, false
		arm := env.NewStackless("arm", func(p *Proc) {
			if !served {
				served = true
				p.Defer(time.Microsecond)
				if p.FlushAsync() {
					return
				}
			}
			served = false
			results.Send(task)
		})
		env.Spawn("collector", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				task = i
				arm.Ready()
				results.Recv(p)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		env.Run()
	})
}
