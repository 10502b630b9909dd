//go:build !race

package sim

import (
	"runtime"
	"testing"
	"time"
)

// Steady-state allocation ceilings for the kernel hot paths. The pooled
// event queue, ring mailboxes, and waiter free-lists make Sleep, Send/Recv,
// and RecvTimeout allocation-free once warm; these tests pin that with a
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

func TestMailboxPingPongAllocFree(t *testing.T) {
	env := New(1)
	defer env.Close()
	ping := NewMailbox[int](env)
	pong := NewMailbox[int](env)
	per := mallocsPerOp(10000, func(ops int) {
		env.Spawn("a", func(p *Proc) {
			for i := 0; i < ops; i++ {
				ping.Send(i)
				pong.Recv(p)
			}
		})
		env.Spawn("b", func(p *Proc) {
			for i := 0; i < ops; i++ {
				pong.Send(ping.Recv(p))
			}
		})
		env.Run()
	})
	// Two Sends, two Recvs, and the scheduling round trip per op.
	if per > 0.2 {
		t.Fatalf("mailbox ping-pong allocates %.2f objects/op in steady state, want ~0", per)
	}
}

func TestRecvTimeoutAllocFree(t *testing.T) {
	env := New(1)
	defer env.Close()
	mb := NewMailbox[int](env)
	per := mallocsPerOp(10000, func(ops int) {
		env.Spawn("w", func(p *Proc) {
			for i := 0; i < ops; i++ {
				// Alternate the tombstone path (satisfied long timeout) and
				// the expiry path.
				if i%2 == 0 {
					env.After(time.Microsecond, func() { mb.Send(1) })
					mb.RecvTimeout(p, time.Hour)
				} else {
					mb.RecvTimeout(p, time.Microsecond)
				}
			}
		})
		env.Run()
	})
	// The even iterations allocate one After closure each; the kernel side
	// (events, waiters, timers) must add nothing.
	if per > 1.1 {
		t.Fatalf("RecvTimeout allocates %.2f objects/op in steady state, want <= ~1 (caller closure)", per)
	}
}

func TestStacklessArmAllocFree(t *testing.T) {
	env := New(1)
	defer env.Close()
	results := NewMailbox[int](env)
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
		results.Send(1)
	})
	per := mallocsPerOp(20000, func(ops int) {
		env.Spawn("collector", func(p *Proc) {
			for i := 0; i < ops; i++ {
				arm.Ready()
				results.Recv(p)
			}
		})
		env.Run()
	})
	if per > 0.1 {
		t.Fatalf("a stackless arm allocates %.2f objects/op in steady state, want ~0", per)
	}
}
