package simnet

import (
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

// BenchmarkNetworkSend measures the asynchronous datagram fast path: b.N
// messages from one node to another, each running its receiver's bound
// handler at arrival.
func BenchmarkNetworkSend(b *testing.B) {
	env := sim.New(1)
	defer env.Close()
	net := New(env, USWest1())
	a := net.NewNode("a", 1, 1)
	c := net.NewNode("c", 2, 2)
	arrived := 0
	onArrive := func() { arrived++ }
	env.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			net.Send(c, a, 256, onArrive)
			p.Sleep(10 * time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkNetworkTravelDeferred measures the fluid-time RPC leg used by
// the metadata hot path (client->NN->NDB hops).
func BenchmarkNetworkTravelDeferred(b *testing.B) {
	env := sim.New(1)
	defer env.Close()
	net := New(env, USWest1())
	a := net.NewNode("a", 1, 1)
	c := net.NewNode("c", 2, 2)
	env.Spawn("rpc", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			net.TravelDeferred(p, a, c, 256, time.Second)
			p.Flush()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}
