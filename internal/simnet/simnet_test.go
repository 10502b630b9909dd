package simnet

import (
	"fmt"
	"testing"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

func newTestNet(t *testing.T) (*sim.Env, *Network) {
	t.Helper()
	env := sim.New(7)
	t.Cleanup(env.Close)
	topo := USWest1()
	topo.JitterFrac = 0 // exact latencies for assertions
	return env, New(env, topo)
}

func TestSendDeliversWithZoneLatency(t *testing.T) {
	env, net := newTestNet(t)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 2, 2)
	var at []time.Duration
	env.Spawn("send", func(p *sim.Proc) {
		net.Send(a, b, 100, func() { at = append(at, env.Now()) })
	})
	env.Run()
	if len(at) != 1 {
		t.Fatalf("handler ran %d times, want once", len(at))
	}
	// One-way a->b latency is RTT/2 = 180us plus tiny transmission time.
	want := 180 * time.Microsecond
	if at[0] < want || at[0] > want+10*time.Microsecond {
		t.Fatalf("delivered at %v, want ~%v", at[0], want)
	}
	if r, _ := b.NICBytes(); r != 100 {
		t.Fatalf("receiver NIC read %d bytes, want 100", r)
	}
}

func TestSameHostLatencyIsLowest(t *testing.T) {
	env, net := newTestNet(t)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 1, 1) // same host
	c := net.NewNode("c", 1, 2) // same zone, other host
	var tb, tc time.Duration
	net.Send(a, b, 10, func() { tb = env.Now() })
	net.Send(a, c, 10, func() { tc = env.Now() })
	env.Run()
	if tb >= tc {
		t.Fatalf("same-host %v not faster than same-zone %v", tb, tc)
	}
}

func TestPartitionDropsAndHealRestores(t *testing.T) {
	env, net := newTestNet(t)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 2, 2)
	net.Partition(1, 2)
	var got []int
	env.Spawn("send", func(p *sim.Proc) {
		net.Send(a, b, 10, func() { got = append(got, 1) })
		p.Sleep(time.Millisecond)
		net.Heal(1, 2)
		net.Send(a, b, 10, func() { got = append(got, 2) })
		p.Sleep(time.Millisecond)
		// A partition that cuts the link while a message is in flight
		// drops it at arrival.
		net.Send(a, b, 10, func() { got = append(got, 3) })
		net.Partition(1, 2)
	})
	env.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("handlers ran for %v, want [2] (one dropped at departure, one at arrival)", got)
	}
	if net.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", net.Dropped())
	}
}

func TestFailedNodeDropsTraffic(t *testing.T) {
	env, net := newTestNet(t)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 1, 2)
	arrived := 0
	onArrive := func() { arrived++ }
	b.Fail()
	net.Send(a, b, 10, onArrive)
	env.Run()
	if arrived != 0 {
		t.Fatal("dead node received a message")
	}
	b.Recover()
	net.Send(a, b, 10, onArrive)
	env.Run()
	if arrived != 1 {
		t.Fatal("recovered node did not receive")
	}
	// The receiver dies while the message is in flight: it is dropped at
	// arrival and its handler never runs.
	net.Send(a, b, 10, onArrive)
	b.Fail()
	env.Run()
	if arrived != 1 || net.Dropped() != 2 {
		t.Fatalf("arrived %d, dropped %d after an in-flight death; want 1 and 2", arrived, net.Dropped())
	}
}

// directedBytes returns the bytes sent on the directed zone-pair link a -> b.
func directedBytes(n *Network, a, b ZoneID) int64 {
	return n.links[n.pairIndex(a, b)].bytes
}

func TestTrafficAccounting(t *testing.T) {
	env, net := newTestNet(t)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 2, 2)
	c := net.NewNode("c", 1, 3)
	net.Send(a, b, 100, nil)
	net.Send(b, a, 50, nil)
	net.Send(a, c, 30, nil)
	env.Run()
	if got := directedBytes(net, 1, 2) + directedBytes(net, 2, 1); got != 150 {
		t.Fatalf("zone1<->zone2 traffic = %d, want 150", got)
	}
	if got := directedBytes(net, 1, 1); got != 30 {
		t.Fatalf("intra-zone1 traffic = %d, want 30", got)
	}
	if got := net.CrossZoneBytes(); got != 150 {
		t.Fatalf("cross-zone = %d, want 150", got)
	}
	if r, w := a.NICBytes(); w != 130 || r != 50 {
		t.Fatalf("a NIC = (%d,%d), want (50,130)", r, w)
	}
}

func TestBandwidthQueueingDelaysBulkTransfers(t *testing.T) {
	env := sim.New(7)
	defer env.Close()
	topo := USWest1()
	topo.JitterFrac = 0
	topo.InterZoneBandwidth = 1e6 // 1 MB/s: 1 MB takes 1 s
	net := New(env, topo)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 2, 2)
	var t1, t2 time.Duration
	net.Send(a, b, 1_000_000, func() { t1 = env.Now() })
	net.Send(a, b, 1_000_000, func() { t2 = env.Now() })
	env.Run()
	if t1 < time.Second || t1 > time.Second+time.Millisecond {
		t.Fatalf("first delivery at %v, want ~1s", t1)
	}
	if t2 < 2*time.Second || t2 > 2*time.Second+time.Millisecond {
		t.Fatalf("second delivery at %v, want ~2s (FIFO queueing)", t2)
	}
}

func TestDiskWriteQueueing(t *testing.T) {
	env, net := newTestNet(t)
	n := net.NewNode("n", 1, 1)
	n.DiskBandwidth = 1e6 // 1 MB/s
	n.DiskLatency = 0
	var done time.Duration
	env.Spawn("writer", func(p *sim.Proc) {
		n.DiskWrite(p, 500_000)
		n.DiskWrite(p, 500_000)
		done = p.Now()
	})
	env.Run()
	if done < time.Second || done > time.Second+time.Millisecond {
		t.Fatalf("two 0.5MB writes took %v, want ~1s", done)
	}
	if _, w := n.DiskBytes(); w != 1_000_000 {
		t.Fatalf("disk write bytes = %d", w)
	}
}

func TestTable1MatrixSymmetryAndDiagonalMinimum(t *testing.T) {
	topo := USWest1()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if topo.RTT[i][j] != topo.RTT[j][i] {
				t.Fatalf("RTT[%d][%d] != RTT[%d][%d]", i, j, j, i)
			}
			if i != j && topo.RTT[i][j] <= topo.RTT[i][i] {
				t.Fatalf("cross-AZ RTT[%d][%d]=%v not greater than intra %v",
					i, j, topo.RTT[i][j], topo.RTT[i][i])
			}
		}
	}
}

func TestZoneNames(t *testing.T) {
	topo := USWest1()
	if topo.ZoneName(ZoneUnset) != "unset" {
		t.Fatal("unset zone name")
	}
	if topo.ZoneName(2) != "us-west1-b" {
		t.Fatalf("zone 2 = %q", topo.ZoneName(2))
	}
}

func TestTravelDeferredMatchesLatency(t *testing.T) {
	env, net := newTestNet(t)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 2, 2)
	var pending time.Duration
	env.Spawn("p", func(p *sim.Proc) {
		if !net.TravelDeferred(p, a, b, 100, time.Second) {
			t.Error("deferred travel failed")
			return
		}
		pending = p.EffNow() - p.Now()
	})
	env.Run()
	// One-way a->b latency is RTT/2 = 180us plus transmission.
	if pending < 180*time.Microsecond || pending > 181*time.Microsecond {
		t.Fatalf("deferred delay %v, want ~180us", pending)
	}
	if r, _ := b.NICBytes(); r != 100 {
		t.Fatalf("deferred travel did not account bytes: %d", r)
	}
}

func TestTravelDeferredToDeadNodeDefersTimeout(t *testing.T) {
	env, net := newTestNet(t)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 2, 2)
	b.Fail()
	var ok bool
	var pending time.Duration
	env.Spawn("p", func(p *sim.Proc) {
		ok = net.TravelDeferred(p, a, b, 100, 250*time.Millisecond)
		pending = p.EffNow() - p.Now()
	})
	env.Run()
	if ok {
		t.Fatal("travel to dead node succeeded")
	}
	if pending != 250*time.Millisecond {
		t.Fatalf("timeout not deferred: %v", pending)
	}
	if net.Dropped() != 1 {
		t.Fatalf("dropped = %d", net.Dropped())
	}
}

func TestTravelDeferredPartitioned(t *testing.T) {
	env, net := newTestNet(t)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 3, 2)
	net.Partition(1, 3)
	var ok bool
	env.Spawn("p", func(p *sim.Proc) {
		ok = net.TravelDeferred(p, a, b, 10, time.Millisecond)
	})
	env.Run()
	if ok {
		t.Fatal("travel across partition succeeded")
	}
}

func TestTravelDeferredLinkQueueing(t *testing.T) {
	env := sim.New(7)
	defer env.Close()
	topo := USWest1()
	topo.JitterFrac = 0
	topo.InterZoneBandwidth = 1e6 // 1 MB/s: 1 MB takes 1 s
	net := New(env, topo)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 2, 2)
	var d1, d2 time.Duration
	env.Spawn("p", func(p *sim.Proc) {
		net.TravelDeferred(p, a, b, 1_000_000, time.Minute)
		d1 = p.EffNow() - p.Now()
		p.Flush()
		// Second transfer starts after the first's horizon in clock frame.
		net.TravelDeferred(p, a, b, 1_000_000, time.Minute)
		d2 = p.EffNow() - p.Now()
	})
	env.Run()
	if d1 < time.Second || d1 > time.Second+time.Millisecond {
		t.Fatalf("first deferred transfer %v, want ~1s", d1)
	}
	if d2 < time.Second || d2 > time.Second+time.Millisecond {
		t.Fatalf("second deferred transfer %v, want ~1s after flush", d2)
	}
}

func TestDegradeLinkStretchesLatency(t *testing.T) {
	env, net := newTestNet(t)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 2, 2)
	net.DegradeLink(1, 2, 4, 0)
	if !net.Degraded(1, 2) || !net.Degraded(2, 1) {
		t.Fatal("degradation not visible (or not symmetric)")
	}
	var pending time.Duration
	env.Spawn("p", func(p *sim.Proc) {
		if !net.TravelDeferred(p, a, b, 100, time.Second) {
			t.Error("travel over slow link failed")
			return
		}
		pending = p.EffNow() - p.Now()
	})
	env.Run()
	// Base one-way latency is 180us; the 4x factor applies to latency but
	// not to transmission time.
	if pending < 4*180*time.Microsecond || pending > 4*180*time.Microsecond+10*time.Microsecond {
		t.Fatalf("slow-link delay %v, want ~720us", pending)
	}
	net.RestoreLink(1, 2)
	if net.Degraded(1, 2) {
		t.Fatal("degradation survived RestoreLink")
	}
}

func TestDegradeLinkDropsProbabilistically(t *testing.T) {
	env, net := newTestNet(t)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 2, 2)
	net.DegradeLink(1, 2, 1, 0.5)
	lost, delivered := 0, 0
	env.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			if net.TravelDeferred(p, a, b, 10, time.Millisecond) {
				delivered++
			} else {
				lost++
			}
		}
	})
	env.Run()
	if lost == 0 || delivered == 0 {
		t.Fatalf("50%% loss gave lost=%d delivered=%d", lost, delivered)
	}
	if lost < 60 || lost > 140 {
		t.Fatalf("loss far from 50%%: %d/200", lost)
	}
	if int(net.Dropped()) != lost {
		t.Fatalf("dropped counter %d, want %d", net.Dropped(), lost)
	}
	// Other zone pairs are unaffected.
	c := net.NewNode("c", 3, 3)
	ok := true
	env.Spawn("q", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			if !net.TravelDeferred(p, a, c, 10, time.Millisecond) {
				ok = false
			}
		}
	})
	env.Run()
	if !ok {
		t.Fatal("degradation of pair (1,2) leaked onto pair (1,3)")
	}
}

// TestDegradeLinkPreservesCleanRNGStream pins the determinism contract:
// installing and removing a degradation must not perturb the RNG stream
// of runs that never degrade — loss draws only happen while a
// degradation is installed.
func TestDegradeLinkPreservesCleanRNGStream(t *testing.T) {
	run := func(withEpisode bool) []time.Duration {
		env := sim.New(99)
		defer env.Close()
		net := New(env, USWest1()) // default jitter: latency consumes RNG
		a := net.NewNode("a", 1, 1)
		b := net.NewNode("b", 2, 2)
		var out []time.Duration
		env.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				if i == 10 && withEpisode {
					net.DegradeLink(1, 3, 3, 0.5) // other pair entirely
					net.RestoreLink(1, 3)
				}
				net.TravelDeferred(p, a, b, 10, time.Second)
				out = append(out, p.EffNow()-p.Now())
			}
		})
		env.Run()
		return out
	}
	clean, episodic := run(false), run(true)
	for i := range clean {
		if clean[i] != episodic[i] {
			t.Fatalf("step %d: clean %v vs episodic %v — degradation episode perturbed the RNG stream",
				i, clean[i], episodic[i])
		}
	}
}

// The two send forms share one source-side admission (admit): the same
// messages sent by Send and TravelDeferred on fresh same-seed networks must
// leave identical NIC, link and registry counters and the same next RNG
// draw, whether delivered or dropped at the source. (A dead receiver is the
// one case they account differently on purpose: TravelDeferred judges it up
// front, Send at arrival, after the sender has paid.)
func TestSendFormsShareAdmission(t *testing.T) {
	const msgs, size = 8, 1000
	forms := []struct {
		name string
		send func(net *Network, p *sim.Proc, from, to *Node)
	}{
		{"Send", func(net *Network, _ *sim.Proc, from, to *Node) { net.Send(from, to, size, nil) }},
		{"TravelDeferred", func(net *Network, p *sim.Proc, from, to *Node) {
			net.TravelDeferred(p, from, to, size, time.Second)
		}},
	}
	cases := []struct {
		name                   string
		setup                  func(net *Network, from *Node)
		minDropped, maxDropped int64
	}{
		{"delivered", func(*Network, *Node) {}, 0, 0},
		{"lossy link", func(net *Network, _ *Node) { net.DegradeLink(1, 2, 2, 0.5) }, 1, msgs - 1},
		{"partitioned", func(net *Network, _ *Node) { net.Partition(1, 2) }, msgs, msgs},
		{"dead sender", func(_ *Network, from *Node) { from.Fail() }, msgs, msgs},
	}
	for _, c := range cases {
		var want string
		for _, f := range forms {
			env := sim.New(7)
			reg := trace.NewRegistry()
			net := New(env, USWest1()) // default jitter: the latency draw consumes RNG
			net.SetRegistry(reg)
			a, b := net.NewNode("a", 1, 1), net.NewNode("b", 2, 2)
			c.setup(net, a)
			env.Spawn("sender", func(p *sim.Proc) {
				for i := 0; i < msgs; i++ {
					f.send(net, p, a, b)
				}
			})
			env.Run()
			ar, aw := a.NICBytes()
			br, bw := b.NICBytes()
			got := fmt.Sprintf("nic a=%d/%d b=%d/%d link bytes=%d msgs=%d xaz=%d dropped=%d registry=%v rand=%d",
				ar, aw, br, bw, directedBytes(net, 1, 2), net.TotalMessages(), net.CrossZoneBytes(),
				net.Dropped(), reg.Snapshot(), env.Rand().Int63())
			env.Close()
			if d := net.Dropped(); d < c.minDropped || d > c.maxDropped {
				t.Errorf("%s/%s: dropped %d of %d, want %d..%d", c.name, f.name, d, msgs, c.minDropped, c.maxDropped)
			}
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s: %s diverges from %s:\n got %s\nwant %s", c.name, f.name, forms[0].name, got, want)
			}
		}
	}
}

// Send pools its delivery envelopes: each in-flight message takes one
// envelope, recycled the instant it arrives, so a steady-state message
// stream reuses the same envelope (and its prebuilt fire closure) instead of
// allocating per message.
func TestEnvelopePoolRecyclesAndDelivers(t *testing.T) {
	env, net := newTestNet(t)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 2, 2)
	var got []string
	env.Spawn("send", func(p *sim.Proc) {
		for i, msg := range []string{"m0", "m1", "m2"} {
			net.Send(a, b, 100, func() { got = append(got, msg) })
			// Serialize the messages so each envelope is back in the pool
			// before the next Send draws one.
			p.Sleep(time.Duration(i+1) * time.Millisecond)
		}
	})
	env.Run()
	if len(got) != 3 || got[0] != "m0" || got[1] != "m1" || got[2] != "m2" {
		t.Fatalf("delivered %v, want [m0 m1 m2]", got)
	}
	if len(net.freeEnvs) != 1 {
		t.Fatalf("envelope pool holds %d entries after serialized sends, want 1 (reuse)", len(net.freeEnvs))
	}
	// A recycled envelope must not retain the delivered message's handler.
	if e := net.freeEnvs[0]; e.onArrive != nil || e.from != nil || e.to != nil {
		t.Fatalf("pooled envelope retains delivery state: %+v", e)
	}
}

// A DiskWrite settles the caller's pending time first: the write of data a
// TravelDeferred hop carried starts when the hop arrives, so the pair ends at
// hop time plus disk time.
func TestDiskWriteAfterDeferredHopSettlesFirst(t *testing.T) {
	env, net := newTestNet(t)
	a := net.NewNode("a", 1, 1)
	b := net.NewNode("b", 2, 2)
	b.DiskBandwidth = 1e6 // 1 MB/s
	b.DiskLatency = 0
	var hop, done time.Duration
	env.Spawn("p", func(p *sim.Proc) {
		net.TravelDeferred(p, a, b, 100_000, time.Second)
		hop = p.EffNow() - p.Now()
		b.DiskWrite(p, 100_000)
		done = p.Now()
	})
	env.Run()
	if want := hop + 100*time.Millisecond; hop == 0 || done != want {
		t.Fatalf("hop %v then a 100 ms write ended at %v, want %v", hop, done, want)
	}
}
