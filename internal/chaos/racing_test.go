package chaos

import (
	"errors"
	"fmt"
	"strconv"
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
		if _, err := nns[0].Mkdir(p, "/race", 0o755); err != nil {
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
					_, err := nn.Mkdir(p, path, 0o755)
					return err
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
			if _, err := nns[r%len(nns)].Mkdir(p, dir, 0o755); err != nil {
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
	names := map[[2]string]int{}
	var all []*namenode.Inode
	for _, db := range d.MetaClusters() {
		db.Table("inodes").ForEachCommitted(func(pk, key string, val ndb.Value) {
			ino := val.(*namenode.Inode)
			if ino.ID == namenode.RootID {
				return
			}
			if _, dup := byID[ino.ID]; dup {
				t.Errorf("inode %d is stored twice (again at %s|%s)", ino.ID, pk, key)
			}
			byID[ino.ID] = ino
			names[[2]string{pk, key}]++
			all = append(all, ino)
		})
	}
	winners := 0
	for _, ino := range all {
		parent, ok := byID[ino.Parent]
		if !ok || (ino.Parent != namenode.RootID && !parent.Dir) {
			t.Errorf("inode %d (%q) is an orphan: no directory %d", ino.ID, ino.Name, ino.Parent)
		}
		if n := names[inodeAddr(ino.Parent, ino.Name)]; n != 1 {
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

// inodeAddr is where name's inode row under parent is stored: its partition
// key and its row key. Below the root a directory's children share the
// partition "<parent>" and the name picks the row; a child of "/" sits alone
// in the partition "c:<name>" under the table-unique key "1/<name>".
func inodeAddr(parent uint64, name string) [2]string {
	if parent == namenode.RootID {
		return [2]string{"c:" + name, "1/" + name}
	}
	return [2]string{strconv.FormatUint(parent, 10), name}
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
		if _, err := nns[0].Mkdir(p, "/upd", 0o755); err != nil {
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

// TestRacingRenames: a rename reads its source nowhere but in its lock-free
// resolve and at its chain's head — it writes the source's delete and the
// destination's insert in one batch, and the source's head takes the
// exclusive lock there and refuses the delete unless the committed inode is
// the very one the resolve found. A metadata server sets one file's
// permission, and 250 µs later two others rename the file to two fresh names
// in one virtual instant, so both renames resolve before the update commits:
// exactly one rename wins, the loser answers ErrNotFound, and an acked
// permission is on the inode wherever it ends up — a rename that resolved
// before the update committed retries instead of moving the stale copy. In
// every other round a fourth server deletes the file at the update's instant
// too: then exactly one of the three that unlink the name wins, and every
// other answers ErrNotFound.
// No racer waits out a timeout. Seeds 1–3, one and two shards, pinned as in
// TestRacingUpdates; the auditor and a walk of the committed inode rows find
// the inode under exactly its winner's name, or under none after an acked
// delete.
func TestRacingRenames(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("seed%d-shards%d", seed, shards), func(t *testing.T) {
				runRacingRenames(t, seed, shards)
			})
		}
	}
}

func runRacingRenames(t *testing.T, seed int64, shards int) {
	const rounds = 8
	// The renames start this long after the update, so its write takes the
	// file's lock at the chain head before theirs arrive, long before it
	// commits; at 100 µs or less a rename's write gets there first.
	const renameLag = 250 * time.Microsecond
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
	perm := func(r int) uint16 { return uint16(0o700 + r) }

	// want is, per round, the file's inode id, the name it must end up
	// under ("" after an acked delete) and the mode bits it must carry (0:
	// no acked update).
	type outcome struct {
		id   uint64
		name string
		perm uint16
	}
	want := make([]outcome, rounds)
	finished := false
	d.Env.Spawn("driver", func(p *sim.Proc) {
		if _, err := nns[0].Mkdir(p, "/mv", 0o755); err != nil {
			t.Error(err)
			return
		}
		if shards > 1 {
			dir, err := nns[0].Stat(p, "/mv")
			if err == nil {
				err = d.NS.PinSubtree(dir.ID, int(dir.ID+1)%shards)
			}
			if err != nil {
				t.Errorf("pin /mv: %v", err)
				return
			}
		}
		for r := 0; r < rounds; r++ {
			f, deleting := fmt.Sprintf("/mv/f%d", r), r%2 == 1
			dsts := [2]string{fmt.Sprintf("a%d", r), fmt.Sprintf("b%d", r)}
			ino, err := nns[0].Create(p, f, 0)
			if err != nil {
				t.Error(err)
				return
			}
			racers := []func(p *sim.Proc) error{
				func(p *sim.Proc) error { return nns[1].Rename(p, f, "/mv/"+dsts[0]) },
				func(p *sim.Proc) error { return nns[2].Rename(p, f, "/mv/"+dsts[1]) },
				func(p *sim.Proc) error { return nns[3].SetPermission(p, f, perm(r)) },
			}
			if deleting {
				racers = append(racers, func(p *sim.Proc) error { _, err := nns[0].Delete(p, f, false); return err })
			}
			errs := make([]error, len(racers))
			done, parent := 0, p
			for i, fn := range racers {
				d.Env.Spawn("racer", func(p *sim.Proc) {
					if i < 2 {
						p.Sleep(renameLag)
					}
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
			// The unlinkers: the two renames, and the delete when there is one.
			want[r].id = ino.ID
			won := 0
			for i, err := range errs {
				if i == 2 {
					continue
				}
				switch {
				case err == nil:
					won++
					if i < 2 {
						want[r].name = dsts[i]
					}
				case !errors.Is(err, namenode.ErrNotFound):
					t.Errorf("%s: racer %d: %v, want nil or ErrNotFound", f, i, err)
				}
			}
			if won != 1 {
				t.Errorf("%s: %d of the racers that unlink it won, want exactly 1 (%v)", f, won, errs)
			}
			switch err := errs[2]; {
			case err == nil:
				want[r].perm = perm(r)
			case !errors.Is(err, namenode.ErrNotFound):
				t.Errorf("%s: setPermission: %v, want nil or ErrNotFound", f, err)
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
	stored := map[uint64][]*namenode.Inode{}
	for _, db := range d.MetaClusters() {
		db.Table("inodes").ForEachCommitted(func(_, _ string, val ndb.Value) {
			ino := val.(*namenode.Inode)
			stored[ino.ID] = append(stored[ino.ID], ino)
		})
	}
	raced := 0
	for r, w := range want {
		rows := stored[w.id]
		if w.name == "" {
			if len(rows) != 0 {
				t.Errorf("round %d: inode %d survives its acked delete as %q", r, w.id, rows[0].Name)
			}
			continue
		}
		if len(rows) != 1 || rows[0].Name != w.name {
			var names []string
			for _, ino := range rows {
				names = append(names, ino.Name)
			}
			t.Errorf("round %d: inode %d is stored under %q, want exactly %q", r, w.id, names, w.name)
			continue
		}
		if w.perm != 0 {
			raced++
			if rows[0].Perm != w.perm {
				t.Errorf("round %d: %s has perm %o, want the acked %o: the update was lost", r, w.name, rows[0].Perm, w.perm)
			}
		}
	}
	if raced == 0 {
		t.Error("no round acked both a rename and the update: the head's check of a changed source was not exercised")
	}
}

// TestCreateRacesParentRemoval: a create whose hints reach its parent sends
// the parent's share lock and its own insert in one batch, so the two locks
// come in no order of their own. Nothing that holds the parent exclusively
// waits for a row a create inserts: a recursive delete locks only the
// children its subtree walk finds committed, and a non-recursive delete, a
// rename and an update of the parent write only its row (and the create
// never queues for its parent while it may hold its row, which
// TestMergedCreateNeverQueuesForItsParent pins). Creates and mkdirs under
// /p/sN, started a quarter millisecond
// apart on three metadata servers with the directory's hints warm, race each
// of those four removals in turn. Every outcome must be linearizable: a child
// whose create was acked exists under the directory wherever it ends up (or
// died with it in an acked recursive delete), a create that answered
// ErrNotFound came after an acked removal, and a non-recursive delete that
// answered ErrNotEmpty came after an acked create. No lock wait may reach the
// lock timeout, and the auditor and a walk of the committed inode rows find no
// orphan. Seeds 1–3, one and two shards; with two, /p is pinned as in
// TestRacingRenames, so the batch spans shards and runs as two rounds.
func TestCreateRacesParentRemoval(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("seed%d-shards%d", seed, shards), func(t *testing.T) {
				runRacesParentRemoval(t, seed, shards, false)
			})
		}
	}
}

// TestMutationRacesParentRemoval: a hint-warm delete sends its parent's share
// lock and its target's delete in one batch, and a hint-warm setPermission
// sends its edit in the batch that reads the parent chain, with no parent
// lock. A delete never queues for its parent while it may hold its target —
// the parent's lock is taken only if it can be granted at once (pinned by
// TestMergedDeleteNeverQueuesForItsParent) — and an update holds its
// target's lock alone. The children of /p/sN exist before the round; deletes
// and setPermissions of them, started as the creates of
// TestCreateRacesParentRemoval are, race the same four removals of /p/sN.
// Every outcome must be linearizable: an acked delete's child is gone, an
// acked setPermission's child has the new mode wherever it ends up (unless
// an acked recursive delete took it), a mutation that answered ErrNotFound
// came after an acked removal and left its child as it was, and the
// non-recursive delete of /p/sN answers ErrNotEmpty, as the setPermissions'
// children remain. No lock wait may reach the lock timeout, and the auditor
// and a walk of the committed inode rows find no orphan. Seeds 1–3, one and
// two shards.
func TestMutationRacesParentRemoval(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("seed%d-shards%d", seed, shards), func(t *testing.T) {
				runRacesParentRemoval(t, seed, shards, true)
			})
		}
	}
}

// runRacesParentRemoval races, round by round, one removal of /p/sN against
// a dozen single-name mutations under it: creates and mkdirs of new children,
// or with mutate deletes and setPermissions of existing ones.
func runRacesParentRemoval(t *testing.T, seed int64, shards int, mutate bool) {
	const (
		rounds   = 8
		children = 12
		stagger  = 250 * time.Microsecond
		// removeAt starts the removal among the mutations: those started
		// well before it win the parent's lock, those started after it lose,
		// and those between send their batch while it holds the parent and
		// walks the children.
		removeAt = 1500 * time.Microsecond
		perm     = 0o600
	)
	d := parentRaceDeployment(t, seed, shards)
	nns := d.NS.NameNodes()
	removals := []string{"delete -r", "delete", "rename", "setPermission"}
	exercised := map[string]bool{}
	finished := false
	d.Env.Spawn("driver", func(p *sim.Proc) {
		if !makeP(t, p, d) {
			return
		}
		for r := 0; r < rounds; r++ {
			dir, moved, removal := fmt.Sprintf("/p/s%d", r), fmt.Sprintf("/p/t%d", r), removals[r%len(removals)]
			if _, err := nns[0].Mkdir(p, dir, 0o755); err != nil {
				t.Error(err)
				return
			}
			for k := 0; mutate && k < children; k++ {
				var err error
				child := fmt.Sprintf("%s/c%d", dir, k)
				if k%4 == 0 {
					_, err = nns[0].Mkdir(p, child, 0o755)
				} else {
					_, err = nns[0].Create(p, child, 10)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
			// Warm every racer's hints down to the directory, so each
			// mutation's write rides its resolve's batch.
			for _, nn := range nns[1:] {
				if _, err := nn.Stat(p, dir); err != nil {
					t.Error(err)
					return
				}
			}
			var removeErr error
			errs := make([]error, children)
			racers := []func(p *sim.Proc){func(p *sim.Proc) {
				p.Sleep(removeAt)
				switch removal {
				case "delete -r":
					_, removeErr = nns[0].Delete(p, dir, true)
				case "delete":
					_, removeErr = nns[0].Delete(p, dir, false)
				case "rename":
					removeErr = nns[0].Rename(p, dir, moved)
				default:
					removeErr = nns[0].SetPermission(p, dir, 0o700)
				}
			}}
			for k := range children {
				racers = append(racers, func(p *sim.Proc) {
					p.Sleep(time.Duration(k) * stagger)
					nn, child := nns[1+k%3], fmt.Sprintf("%s/c%d", dir, k)
					switch {
					case mutate && k%2 == 0:
						_, errs[k] = nn.Delete(p, child, false)
					case mutate:
						errs[k] = nn.SetPermission(p, child, perm)
					case k%2 == 1:
						_, errs[k] = nn.Mkdir(p, child, 0o755)
					default:
						_, errs[k] = nn.Create(p, child, 10)
					}
				})
			}
			done, parent := 0, p
			for _, fn := range racers {
				d.Env.Spawn("racer", func(p *sim.Proc) {
					fn(p)
					done++
					parent.Wake()
				})
			}
			p.Flush()
			for done < len(racers) {
				p.Wait()
			}

			// Where the directory is now: "" when an acked delete removed it.
			where := dir
			switch {
			case removal == "delete" && errors.Is(removeErr, namenode.ErrNotEmpty):
			case removeErr != nil:
				t.Errorf("%s %s: %v", removal, dir, removeErr)
				continue
			case removal == "delete" && mutate:
				t.Errorf("round %d: delete %s was acked, but the setPermissions' children remain under it", r, dir)
				continue
			case removal == "rename":
				where = moved
			case removal != "setPermission":
				where = ""
			}
			acked := 0
			for k, err := range errs {
				child := fmt.Sprintf("c%d", k)
				var ino *namenode.Inode
				var serr error = namenode.ErrNotFound
				if where != "" {
					ino, serr = nns[0].Stat(p, where+"/"+child)
				}
				deleted := mutate && k%2 == 0
				switch {
				case err == nil:
					acked++
					switch {
					case deleted && serr == nil:
						t.Errorf("round %d: %s/%s survives its acked delete under %s", r, dir, child, where)
					case deleted || where == "":
					case serr != nil:
						t.Errorf("round %d: acked %s/%s is not under %s after the %s: %v", r, dir, child, where, removal, serr)
					case mutate && ino.Perm != perm:
						t.Errorf("round %d: %s/%s has perm %o after its acked setPermission", r, where, child, ino.Perm)
					}
				case errors.Is(err, namenode.ErrNotFound):
					exercised[removal] = true
					if where == dir {
						t.Errorf("round %d: %s/%s answered ErrNotFound, but the %s did not remove %s", r, dir, child, removal, dir)
					} else if mutate && where != "" && (serr != nil || ino.Perm == perm) {
						t.Errorf("round %d: %s/%s answered ErrNotFound, but is %+v, %v under %s", r, dir, child, ino, serr, where)
					}
				default:
					t.Errorf("round %d: %s/%s: %v, want nil or ErrNotFound", r, dir, child, err)
				}
			}
			if removal == "delete" && errors.Is(removeErr, namenode.ErrNotEmpty) {
				exercised[removal] = true
				if acked == 0 && !mutate {
					t.Errorf("round %d: delete %s answered ErrNotEmpty, but no create was acked", r, dir)
				}
			}
			if removal == "delete" && removeErr == nil && acked > 0 {
				t.Errorf("round %d: delete %s was acked, and so were %d creates under it", r, dir, acked)
			}
		}
		finished = true
	})
	d.Env.RunFor(60 * time.Second)
	if !finished {
		t.Fatal("the races did not finish")
	}
	for _, r := range removals[:3] {
		if !exercised[r] {
			t.Errorf("no mutation lost to a %s, and no %s to a mutation: the race was not exercised", r, r)
		}
	}
	checkRaceAftermath(t, d)
}

// parentRaceDeployment builds the deployment the races against a removal of
// /p/sN run on: four metadata servers, six datanodes, eight partitions per
// table.
func parentRaceDeployment(t *testing.T, seed int64, shards int) *core.Deployment {
	t.Helper()
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
	t.Cleanup(d.Close)
	return d
}

// makeP makes /p and, with two shards, pins it as in TestRacingRenames, so
// that a batch under it spans shards. It reports whether it succeeded.
func makeP(t *testing.T, p *sim.Proc, d *core.Deployment) bool {
	nn := d.NS.NameNodes()[0]
	if _, err := nn.Mkdir(p, "/p", 0o755); err != nil {
		t.Error(err)
		return false
	}
	if shards := len(d.MetaClusters()); shards > 1 {
		dir, err := nn.Stat(p, "/p")
		if err == nil {
			err = d.NS.PinSubtree(dir.ID, int(dir.ID+1)%shards)
		}
		if err != nil {
			t.Errorf("pin /p: %v", err)
			return false
		}
	}
	return true
}

// checkRaceAftermath fails the test if a lock wait reached ndb's deadlock
// timeout — a deadlock sat it out — or if the auditor or a walk of the
// committed inode rows finds an orphan.
func checkRaceAftermath(t *testing.T, d *core.Deployment) {
	t.Helper()
	const lockTimeout = 150 * time.Millisecond
	for s, l := range d.Contention() {
		for _, e := range l.Entries() {
			if e.Timeouts > 0 || e.Max >= lockTimeout {
				t.Errorf("shard %d: %s waited on %s for %v on %s (%d timeouts): a deadlock sat out the lock timeout",
					s, e.Waiter, e.Holder, e.Max, e.Table, e.Timeouts)
			}
		}
	}
	for _, v := range NewAuditor(d).Check(d.Env.Now(), true, true) {
		t.Errorf("audit: %s", v)
	}
	byID := map[uint64]*namenode.Inode{namenode.RootID: nil}
	var all []*namenode.Inode
	for _, db := range d.MetaClusters() {
		db.Table("inodes").ForEachCommitted(func(_, _ string, val ndb.Value) {
			ino := val.(*namenode.Inode)
			byID[ino.ID] = ino
			all = append(all, ino)
		})
	}
	for _, ino := range all {
		if parent, ok := byID[ino.Parent]; ino.ID != namenode.RootID && (!ok || (ino.Parent != namenode.RootID && !parent.Dir)) {
			t.Errorf("inode %d (%q) is an orphan: no directory %d", ino.ID, ino.Name, ino.Parent)
		}
	}
}

// TestRenameRacesSubtreeRemoval: renames within /p/sN move its files into
// its directory m while a recursive delete of /p/sN walks it. The walk
// locks the children one at a time in listing order — a0…a5, m, z0…z5 —
// and a rename locks its source and, shared, its destination's parent m.
// An a-file lists before m and a z-file after it, so a rename that took
// its two locks in one fixed order would close a ring with the walk for
// one of the two kinds, which only the lock timeout breaks: holding m and
// waiting for a2 while the walk holds a2 and waits for m. Every rename
// answers nil or ErrNotFound, the delete is acked and takes /p/sN with
// everything under it; no lock wait may reach the lock timeout, and the
// auditor and a walk of the committed inode rows find no orphan. Seeds 1–3,
// one and two shards. A walk that meets a child renamed away since its scan
// skips it: the child is no longer under the directory, and the delete
// must not answer ErrNotFound for it.
func TestRenameRacesSubtreeRemoval(t *testing.T) {
	const (
		rounds = 8
		// The renames start one stagger apart from renameAt; the delete
		// starts two staggers later each round, so in the early rounds the
		// renames meet the walk's locks, and in the late rounds the walk
		// meets theirs.
		stagger  = 300 * time.Microsecond
		renameAt = 3 * time.Millisecond
	)
	var files []string
	for i := range 6 {
		files = append(files, fmt.Sprintf("a%d", i), fmt.Sprintf("z%d", i))
	}
	outcomes := map[string]int{}
	for _, seed := range []int64{1, 2, 3} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("seed%d-shards%d", seed, shards), func(t *testing.T) {
				d := parentRaceDeployment(t, seed, shards)
				nns := d.NS.NameNodes()
				finished := false
				d.Env.Spawn("driver", func(p *sim.Proc) {
					if !makeP(t, p, d) {
						return
					}
					for r := range rounds {
						dir := fmt.Sprintf("/p/s%d", r)
						_, err := nns[0].Mkdir(p, dir, 0o755)
						if err == nil {
							_, err = nns[0].Mkdir(p, dir+"/m", 0o755)
						}
						for _, f := range files {
							if err == nil {
								_, err = nns[0].Create(p, dir+"/"+f, 10)
							}
						}
						// Warm every racer's hints down to m, so each
						// rename's resolve is one batch.
						for _, nn := range nns[1:] {
							if err == nil {
								_, err = nn.Stat(p, dir+"/m")
							}
						}
						if err != nil {
							t.Error(err)
							return
						}
						var removeErr error
						errs := make([]error, len(files))
						racers := []func(p *sim.Proc){func(p *sim.Proc) {
							p.Sleep(time.Duration(2*r) * stagger)
							_, removeErr = nns[0].Delete(p, dir, true)
						}}
						for k, f := range files {
							racers = append(racers, func(p *sim.Proc) {
								p.Sleep(renameAt + time.Duration(k)*stagger)
								errs[k] = nns[1+k%3].Rename(p, dir+"/"+f, dir+"/m/"+f)
							})
						}
						done, parent := 0, p
						for _, fn := range racers {
							d.Env.Spawn("racer", func(p *sim.Proc) {
								fn(p)
								done++
								parent.Wake()
							})
						}
						p.Flush()
						for done < len(racers) {
							p.Wait()
						}
						if removeErr != nil {
							t.Errorf("round %d: delete -r %s: %v", r, dir, removeErr)
						}
						if _, err := nns[0].Stat(p, dir); !errors.Is(err, namenode.ErrNotFound) {
							t.Errorf("round %d: %s after its acked recursive delete: %v", r, dir, err)
						}
						for k, err := range errs {
							switch {
							case err == nil:
								outcomes["acked"]++
							case errors.Is(err, namenode.ErrNotFound):
								outcomes["not found"]++
							default:
								t.Errorf("round %d: rename of %s/%s: %v, want nil or ErrNotFound", r, dir, files[k], err)
							}
						}
					}
					finished = true
				})
				d.Env.RunFor(60 * time.Second)
				if !finished {
					t.Fatal("the races did not finish")
				}
				checkRaceAftermath(t, d)
			})
		}
	}
	if outcomes["acked"] == 0 || outcomes["not found"] == 0 {
		t.Errorf("renames %v: want some acked before the delete and some that lost to it", outcomes)
	}
}
