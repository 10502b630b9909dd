package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// A stackless process has no coroutine to park: a kernel primitive that
// would park it panics, naming the process, out of Run.
func TestStacklessParkPanicsWithName(t *testing.T) {
	env := New(1)
	defer env.Close()
	env.NewStackless("arm-7", func(p *Proc) { p.Sleep(time.Millisecond) }).Ready()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"arm-7"`) || !strings.Contains(msg, "parked") {
			t.Fatalf("Run panicked with %q, want the stackless process's name", msg)
		}
	}()
	env.Run()
	t.Fatal("Run returned: the stackless park did not panic")
}

// fanTrace drives a fan-out workload and returns every observable kernel
// position of it: where each arm served and delivered, where the collector
// collected, and where an unrelated ticker woke, each stamped with the clock
// and the event sequence number. stackless picks how arms run: as pooled
// coroutine workers waiting for their next task, or as pooled two-step
// stackless arms. Arms draw their delay from the shared RNG, and some draw
// none, so the no-wake-up path is exercised too.
func fanTrace(stackless bool) []string {
	env := New(7)
	defer env.Close()
	var trace []string
	rec := func(what string, id int) {
		trace = append(trace, fmt.Sprintf("%s %d @%d #%d", what, id, env.now, env.seq))
	}
	var collector *Proc
	var arrived []int
	serve := func(p *Proc, id int) {
		rec("serve", id)
		p.Defer(time.Duration(env.Rand().Intn(4)) * time.Microsecond)
	}
	deliver := func(id int) {
		rec("deliver", id)
		arrived = append(arrived, id)
		collector.Wake()
	}

	var dispatch func(id int)
	if stackless {
		type arm struct {
			p      *Proc
			id     int
			served bool
		}
		var pool []*arm
		dispatch = func(id int) {
			var a *arm
			if n := len(pool); n > 0 {
				a, pool = pool[n-1], pool[:n-1]
			} else {
				a = &arm{}
				a.p = env.NewStackless("arm", func(p *Proc) {
					if !a.served {
						a.served = true
						serve(p, a.id)
						if p.FlushAsync() {
							return
						}
					}
					a.served = false
					pool = append(pool, a)
					deliver(a.id)
				})
			}
			a.id = id
			a.p.Ready()
		}
	} else {
		type worker struct {
			p    *Proc
			task int // 0: none
		}
		var pool []*worker
		dispatch = func(id int) {
			var w *worker
			if n := len(pool); n > 0 {
				w, pool = pool[n-1], pool[:n-1]
			} else {
				w = &worker{}
				w.p = env.Spawn("worker", func(p *Proc) {
					for {
						for w.task == 0 {
							p.Wait()
						}
						id := w.task
						w.task = 0
						serve(p, id)
						p.Flush()
						deliver(id)
						pool = append(pool, w)
					}
				})
			}
			w.task = id
			w.p.Wake()
		}
	}

	collector = env.Spawn("collector", func(p *Proc) {
		id := 0
		for round := 0; round < 40; round++ {
			k := 1 + round%4
			for i := 0; i < k; i++ {
				id++
				dispatch(id)
			}
			p.Defer(time.Duration(env.Rand().Intn(3)) * time.Microsecond)
			p.Flush()
			for len(arrived) < k {
				p.Wait()
			}
			for _, id := range arrived {
				rec("collect", id)
			}
			arrived = arrived[:0]
		}
	})
	env.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 60; i++ {
			p.Sleep(time.Duration(1+env.Rand().Intn(3)) * time.Microsecond)
			rec("tick", i)
		}
	})
	env.Run()
	return trace
}

// A two-step stackless arm takes exactly the kernel positions of the
// coroutine worker it replaces — the same ready-ring slots, timer sequence
// numbers and RNG draws — so every (time, seq) of the run is unchanged; the
// stackless run only switches into fewer coroutines.
func TestStacklessArmMatchesWorkerSchedule(t *testing.T) {
	workers, arms := fanTrace(false), fanTrace(true)
	if len(workers) < 200 {
		t.Fatalf("trace has %d entries: the workload did not run", len(workers))
	}
	if !slices.Equal(workers, arms) {
		for i := range min(len(workers), len(arms)) {
			if workers[i] != arms[i] {
				t.Fatalf("traces diverge at entry %d: worker %q, stackless %q", i, workers[i], arms[i])
			}
		}
		t.Fatalf("trace lengths differ: worker %d, stackless %d", len(workers), len(arms))
	}
}

// Resumes counts switches into coroutines and Steps calls of stackless
// steps: a stackless arm that defers takes two steps and no resume.
func TestResumesAndStepsCounted(t *testing.T) {
	env := New(1)
	defer env.Close()
	served := false
	arm := env.NewStackless("arm", func(p *Proc) {
		if !served {
			served = true
			p.Defer(time.Millisecond)
			if p.FlushAsync() {
				return
			}
		}
	})
	env.Spawn("starter", func(p *Proc) {
		arm.Ready()
		p.Sleep(2 * time.Millisecond)
	})
	env.Run()
	// The starter's start and its wake-up; the arm's serve and its wake-up.
	if env.Resumes() != 2 || env.Steps() != 2 {
		t.Fatalf("resumes %d, steps %d; want 2 and 2", env.Resumes(), env.Steps())
	}
}
