package objstore

import (
	"errors"
	"testing"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

func testStore(t *testing.T) (*sim.Env, *simnet.Network, *Store) {
	t.Helper()
	env := sim.New(9)
	t.Cleanup(env.Close)
	net := simnet.New(env, simnet.USWest1())
	s := New(env, net, []simnet.ZoneID{1, 2, 3}, 700)
	return env, net, s
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	env, net, s := testStore(t)
	client := net.NewNode("client", 2, 800)
	var gotSize int64
	var getErr error
	env.Spawn("io", func(p *sim.Proc) {
		if err := s.Put(p, client, "a/b", 1<<20); err != nil {
			t.Error(err)
			return
		}
		gotSize, getErr = s.Get(p, client, "a/b")
	})
	env.RunFor(time.Minute)
	if getErr != nil || gotSize != 1<<20 {
		t.Fatalf("get: %v size=%d", getErr, gotSize)
	}
	if !s.Exists("a/b") || s.Len() != 1 {
		t.Fatal("object not registered")
	}
	s.Delete("a/b")
	if s.Exists("a/b") {
		t.Fatal("object survived delete")
	}
	env.Spawn("missing", func(p *sim.Proc) {
		_, getErr = s.Get(p, client, "a/b")
	})
	env.RunFor(time.Minute)
	if !errors.Is(getErr, ErrNoSuchKey) {
		t.Fatalf("get deleted: %v", getErr)
	}
}

func TestGetLatencyIncludesServiceTime(t *testing.T) {
	env, net, s := testStore(t)
	client := net.NewNode("client", 1, 800)
	var dur time.Duration
	env.Spawn("io", func(p *sim.Proc) {
		if err := s.Put(p, client, "k", 1024); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		t0 := p.Now()
		if _, err := s.Get(p, client, "k"); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		dur = p.Now() - t0
	})
	env.RunFor(time.Minute)
	if dur < getLatency {
		t.Fatalf("get took %v, below the service latency %v", dur, getLatency)
	}
}

func TestPutReplicatesAcrossZones(t *testing.T) {
	env, net, s := testStore(t)
	client := net.NewNode("client", 1, 800)
	env.Spawn("io", func(p *sim.Proc) {
		if err := s.Put(p, client, "k", 4<<20); err != nil {
			t.Error(err)
		}
	})
	env.RunFor(time.Minute)
	// The provider's internal fan-out must have crossed AZ boundaries with
	// roughly 2 extra copies of the object.
	if got := net.CrossZoneBytes(); got < 2*(4<<20) {
		t.Fatalf("cross-zone replication traffic = %d, want >= %d", got, 2*(4<<20))
	}
}

func TestZoneLocalEndpointPreferred(t *testing.T) {
	env, net, s := testStore(t)
	client := net.NewNode("client", 3, 800)
	env.Spawn("io", func(p *sim.Proc) {
		if err := s.Put(p, client, "k", 1<<20); err != nil {
			t.Error(err)
			return
		}
		// Reset counters, then GET: the download must stay in zone 3.
		if _, err := s.Get(p, client, "k"); err != nil {
			t.Error(err)
		}
	})
	env.RunFor(time.Minute)
	ep := s.endpoints[3]
	if _, w := ep.NICBytes(); w < 1<<20 {
		t.Fatalf("zone-3 endpoint served %d bytes; GET not zone-local", w)
	}
}

func TestEndpointFailover(t *testing.T) {
	env, net, s := testStore(t)
	client := net.NewNode("client", 2, 800)
	s.FailZone(2)
	var err error
	env.Spawn("io", func(p *sim.Proc) {
		err = s.Put(p, client, "k", 1024)
	})
	env.RunFor(time.Minute)
	if err != nil {
		t.Fatalf("put after endpoint failure: %v", err)
	}
	if !s.Exists("k") {
		t.Fatal("object missing after failover")
	}
}

func TestAllEndpointsDownIsUnavailable(t *testing.T) {
	env, net, s := testStore(t)
	client := net.NewNode("client", 1, 800)
	for z := simnet.ZoneID(1); z <= 3; z++ {
		s.FailZone(z)
	}
	var err error
	env.Spawn("io", func(p *sim.Proc) {
		err = s.Put(p, client, "k", 1024)
	})
	env.RunFor(time.Minute)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("put with no endpoints: %v", err)
	}
}

// TestRateLimitQueuesRequests offers n concurrent gets to one endpoint at
// once: at requestsPerSecond the last cannot finish sooner than
// n/requestsPerSecond after they start.
func TestRateLimitQueuesRequests(t *testing.T) {
	const n = 1000
	env := sim.New(9)
	defer env.Close()
	net := simnet.New(env, simnet.USWest1())
	s := New(env, net, []simnet.ZoneID{1}, 700)
	client := net.NewNode("client", 1, 800)
	var start, last time.Duration
	env.Spawn("put", func(p *sim.Proc) {
		if err := s.Put(p, client, "k", 16); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		start = p.Now()
		for i := 0; i < n; i++ {
			env.Spawn("get", func(p *sim.Proc) {
				if _, err := s.Get(p, client, "k"); err != nil {
					t.Error(err)
					return
				}
				p.Flush()
				last = max(last, p.Now())
			})
		}
	})
	env.RunFor(10 * time.Minute)
	if s.Gets != n {
		t.Fatalf("%d of %d gets finished", s.Gets, n)
	}
	floor := n * time.Second / requestsPerSecond
	if took := last - start; took < floor {
		t.Fatalf("%d concurrent gets finished in %v, under the %v that %d req/s allows", n, took, floor, requestsPerSecond)
	}
}
