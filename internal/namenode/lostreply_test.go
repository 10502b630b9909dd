package namenode

import (
	"errors"
	"testing"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/nsmodel"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// TestLostReplyIsNotRunAgain loses the reply of a mkdir, a create, a rename
// and a delete after each committed: the server that ran the handler fails
// before its reply leaves. A client that ran the call again on another
// server would answer ErrExists, ErrExists, ErrNotFound and ErrNotFound for
// calls that applied. Each answers ErrReplyLost instead, an unknown outcome
// no caller retries; each applied exactly once, and the recorded history
// linearizes.
func TestLostReplyIsNotRunAgain(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	var hist nsmodel.History
	cl.Record(&hist)
	// lose runs op through the client's retry loop with a handler that runs
	// the server's own and then fails that server, the first time only.
	lose := func(p *sim.Proc, op nsmodel.Op, run func(nn *NameNode) error) error {
		var failed *NameNode
		err := cl.do(p, op, 0, func(nn *NameNode) (int, error) {
			err := run(nn)
			if failed == nil {
				failed = nn
				nn.Fail()
			}
			return 0, err
		})
		failed.Recover()
		return err
	}
	// names counts the committed inodes by name.
	names := func() map[string]int {
		n := map[string]int{}
		h.ns.ForEachInode(func(ino *Inode) { n[ino.Name]++ })
		return n
	}
	h.run(t, func(p *sim.Proc) {
		for _, c := range []struct {
			op   nsmodel.Op
			run  func(nn *NameNode) error
			want map[string]int
		}{
			{nsmodel.Op{Name: "mkdir", Path: "/d"}, func(nn *NameNode) error { _, err := nn.Mkdir(p, "/d", 0o755); return err },
				map[string]int{"d": 1}},
			{nsmodel.Op{Name: "create", Path: "/d/f"}, func(nn *NameNode) error { _, err := nn.Create(p, "/d/f", 0); return err },
				map[string]int{"d": 1, "f": 1}},
			{nsmodel.Op{Name: "rename", Path: "/d/f", Dst: "/d/g"}, func(nn *NameNode) error { return nn.Rename(p, "/d/f", "/d/g") },
				map[string]int{"d": 1, "g": 1}},
			{nsmodel.Op{Name: "delete", Path: "/d/g"}, func(nn *NameNode) error { _, err := nn.Delete(p, "/d/g", false); return err },
				map[string]int{"d": 1}},
		} {
			err := lose(p, c.op, c.run)
			if !errors.Is(err, ErrReplyLost) || !errors.Is(err, ndb.ErrIndeterminate) || Outcome(nsmodel.Op{Err: err}).Err != nsmodel.ErrUnknown {
				t.Errorf("%s %s with its reply lost: %v, want %v", c.op.Name, c.op.Path, err, ErrReplyLost)
			}
			got := names()
			delete(got, "")
			if len(got) != len(c.want) {
				t.Errorf("after %s %s the namespace holds %v, want %v", c.op.Name, c.op.Path, got, c.want)
			}
			for name, n := range c.want {
				if got[name] != n {
					t.Errorf("after %s %s the namespace holds %v, want %v", c.op.Name, c.op.Path, got, c.want)
				}
			}
			cl.Stat(p, "/d/f")
			cl.Stat(p, "/d/g")
		}
	})
	if err := nsmodel.Check(hist.Ops, Outcome, nsmodel.FirstRenameErr); err != nil {
		t.Fatal(err)
	}
}

// TestLostRequestIsRetried loses a create's request on its way to the
// client's server — the link between their zones is cut — so no handler
// ran: the client tries another server, and the create applies once.
// The balanced pick alone could draw the cut server again for every
// attempt; the retry leaves it out of the pool.
func TestLostRequestIsRetried(t *testing.T) {
	h := newHarness(t)
	cl := h.ns.NewClient(1, 600, simnet.ZoneUnset)
	var cut *NameNode
	h.run(t, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
		cut = cl.nn
		if cut.Node.Zone() == cl.Node.Zone() {
			t.Fatalf("the client's server %s shares its zone: no link to cut", cut.Node.Name())
		}
		// The retry picks among the other servers; the cut heals while
		// its transaction backs off from the cut zone's data nodes.
		h.net.Partition(cl.Node.Zone(), cut.Node.Zone())
		h.env.Spawn("heal", func(p *sim.Proc) {
			p.Sleep(0)
			h.net.Heal(cl.Node.Zone(), cut.Node.Zone())
		})
		dropped := h.net.Dropped()
		if err := cl.Create(p, "/d/f", 0); err != nil {
			t.Fatalf("create after a lost request: %v", err)
		}
		if h.net.Dropped() == dropped || cl.nn == cut {
			t.Fatalf("the request to %s was not lost (%d messages dropped), or the client stayed on it", cut.Node.Name(), h.net.Dropped()-dropped)
		}
	})
	n := 0
	h.ns.ForEachInode(func(ino *Inode) {
		if ino.Name == "f" {
			n++
		}
	})
	if n != 1 {
		t.Fatalf("the create applied %d times, want once", n)
	}
}
