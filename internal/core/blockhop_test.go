package core

import (
	"testing"
	"time"

	"hopsfscl/internal/profile"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// A block pipeline hop is an RPC hop like any other: a traced WriteFile and
// ReadFile of a multi-MB file record the wire time of every hop class their
// block traffic used, and the profiler attributes that time to net.*, not to
// compute.
func TestBlockHopsCarryWireTime(t *testing.T) {
	setup, ok := SetupByName("HopsFS-CL (3,3)")
	if !ok {
		t.Fatal("setup not found")
	}
	opts := smallOptions(setup)
	opts.WithBlockLayer = true
	d, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.EnableTracing(0)
	cl := d.NS.NewClient(1, 9001, 1)
	var roots []*trace.Span
	traced := func(p *sim.Proc, name string, op func() error) {
		sp := d.Tracer.StartOp(name, p.EffNow())
		prev := p.SetSpan(sp)
		err := op()
		p.SetSpan(prev)
		sp.Finish(p.EffNow())
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		roots = append(roots, sp)
	}
	d.Env.Spawn("client", func(p *sim.Proc) {
		traced(p, "write", func() error { return cl.WriteFile(p, "/big", 8<<20) })
		traced(p, "read", func() error { _, err := cl.ReadFile(p, "/big"); return err })
	})
	d.Env.RunFor(time.Minute)
	if len(roots) != 2 {
		t.Fatalf("%d of 2 operations finished", len(roots))
	}
	for _, sp := range roots {
		var wire time.Duration
		classes := 0
		for c := trace.HopClass(0); c < trace.NumHopClasses; c++ {
			if sp.HopCount[c] == 0 {
				continue
			}
			classes++
			wire += sp.HopTime[c]
			if sp.HopTime[c] <= 0 {
				t.Errorf("%s: %d %s hops recorded %v of wire time", sp.Name, sp.HopCount[c], c, sp.HopTime[c])
			}
		}
		if classes == 0 {
			t.Errorf("%s: no block hop reached the root span", sp.Name)
		}
		byCat, _ := profile.Analyze([]*trace.Span{sp}).Totals()
		var net time.Duration
		for c := profile.CatHopLocal; c <= profile.CatHopCrossAZ; c++ {
			net += byCat[c]
		}
		if net <= 0 || net != wire {
			t.Errorf("%s: profile attributes %v to net.* (%v to compute), want the hops' %v of wire time",
				sp.Name, net, byCat[profile.CatCompute], wire)
		}
	}
}
