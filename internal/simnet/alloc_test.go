//go:build !race

package simnet

import (
	"testing"
	"time"
)

// A Send whose handler the receiver bound once allocates nothing in steady
// state: the envelope and its arrival event come from pools. Excluded under
// -race, whose instrumentation allocates.
func TestSendAllocFree(t *testing.T) {
	env, net := newTestNet(t)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 2, 2)
	arrived := 0
	onArrive := func() { arrived++ }
	send := func() {
		net.Send(a, b, 100, onArrive)
		env.RunFor(time.Millisecond)
	}
	send() // warm the envelope and event pools
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Fatalf("Send with a bound handler allocates %.2f objects, want 0", allocs)
	}
	if arrived != 1002 {
		t.Fatalf("handler ran %d times, want 1002", arrived)
	}
}
