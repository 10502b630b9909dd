package core

import (
	"testing"
	"time"

	"hopsfscl/internal/namenode"
	"hopsfscl/internal/nsmodel"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/workload"
)

// TestSpotifyMixHistoryLinearizes runs the Spotify mix on HopsFS-CL (3,3)
// over a small seeded namespace, with every benchmark client recording into
// one history, and judges it with nsmodel.Check. The seeded namespace goes
// in first, as mkdirs and creates that returned before 0, each with the
// inode the seed stored; setPermission, which Check does not model, is left
// out.
func TestSpotifyMixHistoryLinearizes(t *testing.T) {
	setup, _ := SetupByName("HopsFS-CL (3,3)")
	d, err := Build(smallOptions(setup))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	byID := map[uint64]*namenode.Inode{}
	d.NS.ForEachInode(func(ino *namenode.Inode) { byID[ino.ID] = ino })
	byPath := map[string]*namenode.Inode{}
	var pathOf func(ino *namenode.Inode) string
	pathOf = func(ino *namenode.Inode) string {
		if ino.ID == namenode.RootID {
			return ""
		}
		return pathOf(byID[ino.Parent]) + "/" + ino.Name
	}
	for _, ino := range byID {
		byPath[pathOf(ino)] = ino
	}
	var h nsmodel.History
	seed := func(name, path string) {
		// One after another, each taking a nanosecond, the last returning
		// before the clients start at 0.
		at := time.Duration(2 * (len(h.Ops) - len(byPath)))
		h.Invoke(nsmodel.Op{Name: name, Path: path, Invoke: at, Return: at + 1, Result: byPath[path]})
	}
	for _, dir := range d.Namespace.Dirs {
		seed("mkdir", dir)
	}
	for _, f := range d.Namespace.AllFiles() {
		seed("create", f)
	}

	stop := false
	for i, fs := range d.Clients {
		fs.(hopsAdapter).cl.Record(&h)
		gen := workload.NewGenerator(d.Namespace, workload.SpotifyMix, int64(i+1))
		d.Env.Spawn("client", func(p *sim.Proc) {
			for !stop {
				gen.Step(p, fs)
			}
		})
	}
	d.Env.RunFor(300 * time.Millisecond)
	stop = true
	d.Env.RunFor(time.Second)

	var ops []nsmodel.Op
	seen := map[string]int{}
	for _, op := range h.Ops {
		if op.Name != "setPermission" {
			ops = append(ops, op)
			seen[op.Name]++
		}
	}
	if err := nsmodel.Check(ops, namenode.Outcome, nsmodel.FirstRenameErr); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mkdir", "create", "stat", "read", "list", "delete", "rename"} {
		if seen[name] == 0 {
			t.Errorf("the run made no %s: %v", name, seen)
		}
	}
	t.Logf("%d operations judged: %v", len(ops), seen)
}
