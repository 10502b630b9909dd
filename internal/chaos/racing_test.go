package chaos

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/namenode"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/workload"
)

// TestRacingCreators: a create takes no lock to learn its name is free — the
// insert is refused at the chain's head — so the property that used to rest
// on "lock the child row, then look" is checked where it is contended. Every
// metadata server creates (or mkdirs) the same name in the same virtual
// instant, under a quota'd directory and with inline payloads so each attempt
// writes sibling chains too: exactly one wins, every other gets ErrExists
// well inside the deadlock timeout (it waited for the winner's lock, it did
// not time out on it), and storage holds one inode per name. Then creates
// race the recursive delete of their parent: whichever order the locks fall,
// the parent ends up gone with nothing left under its id. ≥5 seeds, one, two
// and four shards, batched and serial writes; the auditor and a walk of the
// committed inode rows judge each run. A subtree lives on one shard, so each
// contested directory (/race, each /race/pN) is pinned to put its children on
// another shard than its own row: the parent's share lock then covers a child
// on another shard only because a routed transaction holds every lock until
// its last writer has committed, and a create under /race/pN — its row on
// one shard, /race's quota charge on the other — commits across both.
func TestRacingCreators(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		for _, shards := range []int{1, 2, 4} {
			for _, serial := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed%d-shards%d-serial=%v", seed, shards, serial), func(t *testing.T) {
					runRacingCreators(t, seed, shards, serial)
				})
			}
		}
	}
}

func runRacingCreators(t *testing.T, seed int64, shards int, serial bool) {
	const rounds = 6
	setup, _ := core.SetupByName("HopsFS-CL (3,3)")
	o := core.DefaultOptions(setup)
	o.MetadataServers = 4
	o.ClientsPerServer = 1
	o.StorageNodes = 6
	o.PartitionsPerTable = 8
	o.Namespace = workload.NamespaceSpec{TopDirs: 1, SubDirs: 1, FilesPerDir: 1}
	o.Seed = seed
	o.Shards = shards
	o.DisableBatchedWrites = serial
	d, err := core.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	nns := d.NS.NameNodes()

	// race runs fn on every metadata server from the same instant and returns
	// each one's outcome; an outcome slower than the bound means it sat out a
	// lock timeout (150 ms) or a retry instead of being told.
	race := func(p *sim.Proc, what string, fn func(p *sim.Proc, i int, nn *namenode.NameNode) error) []error {
		errs := make([]error, len(nns))
		done := 0
		parent := p
		for i, nn := range nns {
			d.Env.Spawn("racer", func(p *sim.Proc) {
				start := p.Now()
				errs[i] = fn(p, i, nn)
				if took := p.Now() - start; took > 100*time.Millisecond {
					t.Errorf("%s on %s took %v: it waited out a timeout", what, nn.Node.Name(), took)
				}
				done++
				parent.Wake()
			})
		}
		p.Flush()
		for done < len(nns) {
			p.Wait()
		}
		return errs
	}
	// pinAway pins dir's children to the shard after its own row's — the
	// shard its id names — before any row exists under it.
	pinAway := func(p *sim.Proc, dir string) bool {
		if shards == 1 {
			return true
		}
		ino, err := nns[0].Stat(p, dir)
		if err == nil {
			err = d.NS.PinSubtree(ino.ID, int(ino.ID+1)%shards)
		}
		if err != nil {
			t.Errorf("pin %s: %v", dir, err)
		}
		return err == nil
	}
	finished := false
	d.Env.Spawn("driver", func(p *sim.Proc) {
		if err := nns[0].Mkdir(p, "/race", 0o755); err != nil {
			t.Error(err)
			return
		}
		if !pinAway(p, "/race") {
			return
		}
		if err := nns[0].SetQuota(p, "/race", 1000, 0); err != nil {
			t.Error(err)
			return
		}
		for r := 0; r < rounds; r++ {
			path := fmt.Sprintf("/race/n%d", r)
			errs := race(p, "create "+path, func(p *sim.Proc, _ int, nn *namenode.NameNode) error {
				if r%2 == 1 {
					return nn.Mkdir(p, path, 0o755)
				}
				_, err := nn.Create(p, path, 10)
				return err
			})
			won := 0
			for i, err := range errs {
				switch {
				case err == nil:
					won++
				case !errors.Is(err, namenode.ErrExists):
					t.Errorf("%s on nn-%d: %v, want ErrExists", path, i, err)
				}
			}
			if won != 1 {
				t.Errorf("%s: %d of %d racing creators won, want exactly 1", path, won, len(nns))
			}
		}
		// Create racing the recursive delete of its parent: server 0 deletes,
		// the others create two names under it.
		for r := 0; r < rounds; r++ {
			dir := fmt.Sprintf("/race/p%d", r)
			if err := nns[r%len(nns)].Mkdir(p, dir, 0o755); err != nil {
				t.Error(err)
				return
			}
			if !pinAway(p, dir) {
				return
			}
			errs := race(p, "delete -r vs create under "+dir, func(p *sim.Proc, i int, nn *namenode.NameNode) error {
				if i == 0 {
					_, err := nn.Delete(p, dir, true)
					return err
				}
				_, err := nn.Create(p, fmt.Sprintf("%s/x%d", dir, i%2), 10)
				return err
			})
			if errs[0] != nil {
				t.Errorf("delete -r %s: %v", dir, errs[0])
			}
			for i, err := range errs[1:] {
				if err != nil && !errors.Is(err, namenode.ErrExists) && !errors.Is(err, namenode.ErrNotFound) {
					t.Errorf("create under %s on nn-%d: %v, want nil, ErrExists or ErrNotFound", dir, i+1, err)
				}
			}
			if _, err := nns[1].Stat(p, dir); !errors.Is(err, namenode.ErrNotFound) {
				t.Errorf("%s survives its recursive delete: %v", dir, err)
			}
		}
		finished = true
	})
	d.Env.RunFor(30 * time.Second)
	if !finished {
		t.Fatal("the races did not finish")
	}
	if cross := d.Registry.Counter("shard.txn.cross").Value(); shards > 1 && cross == 0 {
		t.Error("no create committed across both shards: the routed write path was not exercised")
	}
	for _, v := range NewAuditor(d).Check(d.Env.Now(), true, true) {
		t.Errorf("audit: %s", v)
	}

	// No doubled inode (an id under two names, or a name holding a row on two
	// shards) and no orphan (a row whose parent directory is not there).
	byID := map[uint64]*namenode.Inode{namenode.RootID: nil}
	names := map[string]int{}
	var all []*namenode.Inode
	for _, db := range d.MetaClusters() {
		db.Table("inodes").ForEachCommitted(func(_, key string, val ndb.Value) {
			ino := val.(*namenode.Inode)
			if ino.ID == namenode.RootID {
				return
			}
			if _, dup := byID[ino.ID]; dup {
				t.Errorf("inode %d is stored twice (again at %s)", ino.ID, key)
			}
			byID[ino.ID] = ino
			names[key]++
			all = append(all, ino)
		})
	}
	winners := 0
	for _, ino := range all {
		parent, ok := byID[ino.Parent]
		if !ok || (ino.Parent != namenode.RootID && !parent.Dir) {
			t.Errorf("inode %d (%q) is an orphan: no directory %d", ino.ID, ino.Name, ino.Parent)
		}
		if n := names[fmt.Sprintf("%d/%s", ino.Parent, ino.Name)]; n != 1 {
			t.Errorf("name %d/%s holds %d rows", ino.Parent, ino.Name, n)
		}
		if len(ino.Name) > 1 && ino.Name[0] == 'n' {
			winners++
		}
	}
	if winners != rounds {
		t.Errorf("%d contested names are stored, want %d", winners, rounds)
	}
}

// TestRacingUpdates: an update reads its target nowhere but at its chain's
// head — the resolve is lock-free, and the head takes the exclusive lock in
// the update's own Prepare and applies its edit to the value committed under
// it. Two metadata servers set one file's permission and its owner in the
// same virtual instant, so both resolve before either writes: neither loses
// the other's change. In every other round a third server deletes the file
// in that instant too: the delete succeeds, an update that loses to it
// answers ErrNotFound, and no racer waits out a timeout. Seeds 1–3, one and
// two shards; with two, the file's directory is pinned to put its children
// on another shard than its own row, so the delete commits across both. The
// auditor and a walk of the committed inode rows find one inode under each
// name, or none.
func TestRacingUpdates(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("seed%d-shards%d", seed, shards), func(t *testing.T) {
				runRacingUpdates(t, seed, shards)
			})
		}
	}
}

func runRacingUpdates(t *testing.T, seed int64, shards int) {
	const rounds = 8
	setup, _ := core.SetupByName("HopsFS-CL (3,3)")
	o := core.DefaultOptions(setup)
	o.MetadataServers = 4
	o.ClientsPerServer = 1
	o.StorageNodes = 6
	o.PartitionsPerTable = 8
	o.Namespace = workload.NamespaceSpec{TopDirs: 1, SubDirs: 1, FilesPerDir: 1}
	o.Seed = seed
	o.Shards = shards
	d, err := core.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	nns := d.NS.NameNodes()
	path := func(r int) string { return fmt.Sprintf("/upd/f%d", r) }
	perm := func(r int) uint16 { return uint16(0o700 + r) }
	owner := func(r int) string { return fmt.Sprintf("owner%d", r) }

	finished := false
	d.Env.Spawn("driver", func(p *sim.Proc) {
		if err := nns[0].Mkdir(p, "/upd", 0o755); err != nil {
			t.Error(err)
			return
		}
		if shards > 1 {
			dir, err := nns[0].Stat(p, "/upd")
			if err == nil {
				err = d.NS.PinSubtree(dir.ID, int(dir.ID+1)%shards)
			}
			if err != nil {
				t.Errorf("pin /upd: %v", err)
				return
			}
		}
		for r := 0; r < rounds; r++ {
			f, deleting := path(r), r%2 == 1
			if _, err := nns[0].Create(p, f, 0); err != nil {
				t.Error(err)
				return
			}
			racers := []func(p *sim.Proc) error{
				func(p *sim.Proc) error { return nns[1].SetPermission(p, f, perm(r)) },
				func(p *sim.Proc) error { return nns[2].SetOwner(p, f, owner(r)) },
			}
			if deleting {
				racers = append(racers, func(p *sim.Proc) error { _, err := nns[3].Delete(p, f, false); return err })
			}
			errs := make([]error, len(racers))
			done, parent := 0, p
			for i, fn := range racers {
				d.Env.Spawn("racer", func(p *sim.Proc) {
					start := p.Now()
					errs[i] = fn(p)
					if took := p.Now() - start; took > 100*time.Millisecond {
						t.Errorf("%s racer %d took %v: it waited out a timeout", f, i, took)
					}
					done++
					parent.Wake()
				})
			}
			p.Flush()
			for done < len(racers) {
				p.Wait()
			}
			for i, err := range errs[:2] {
				if err != nil && (!deleting || !errors.Is(err, namenode.ErrNotFound)) {
					t.Errorf("%s: update %d: %v", f, i, err)
				}
			}
			got, err := nns[0].Stat(p, f)
			if deleting {
				if errs[2] != nil {
					t.Errorf("delete %s: %v", f, errs[2])
				}
				if !errors.Is(err, namenode.ErrNotFound) {
					t.Errorf("%s survives its delete: %v", f, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("stat %s: %v", f, err)
				continue
			}
			if got.Perm != perm(r) || got.Owner != owner(r) {
				t.Errorf("%s: perm %o owner %q, want %o %q: an update was lost", f, got.Perm, got.Owner, perm(r), owner(r))
			}
		}
		finished = true
	})
	d.Env.RunFor(30 * time.Second)
	if !finished {
		t.Fatal("the races did not finish")
	}
	for _, v := range NewAuditor(d).Check(d.Env.Now(), true, true) {
		t.Errorf("audit: %s", v)
	}
	stored := map[string]int{}
	for _, db := range d.MetaClusters() {
		db.Table("inodes").ForEachCommitted(func(_, _ string, val ndb.Value) {
			ino := val.(*namenode.Inode)
			stored[ino.Name]++
		})
	}
	for r := 0; r < rounds; r++ {
		want := 1
		if r%2 == 1 {
			want = 0
		}
		if name := fmt.Sprintf("f%d", r); stored[name] != want {
			t.Errorf("%s holds %d inodes, want %d", path(r), stored[name], want)
		}
	}
}
