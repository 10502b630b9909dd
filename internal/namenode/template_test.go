package namenode

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/sim"
)

// TestOpTemplate pins what every server operation answers before and at the
// edge of its transaction, case by case: a malformed path, "/" where the
// operation cannot target it, a missing parent, a file used as a parent, and
// a missing target. The expected sentinels are the ones the per-operation
// preambles returned before they were folded into one template (recorded on
// the commit before the fold); a path rejected by validation must also leave
// the server's operation counter and CPU untouched.
func TestOpTemplate(t *testing.T) {
	type opFn func(nn *NameNode, p *sim.Proc, path string) error
	// want lists the expected error per case, in the order of cases below.
	ops := []struct {
		name string
		run  opFn
		want [4]error // root, missing parent, file as parent, missing target
	}{
		{"Mkdir", func(nn *NameNode, p *sim.Proc, path string) error { _, err := nn.Mkdir(p, path, 0o755); return err },
			[4]error{ErrExists, ErrNotFound, ErrNotDir, nil}},
		{"Create", func(nn *NameNode, p *sim.Proc, path string) error { _, err := nn.Create(p, path, 0); return err },
			[4]error{ErrExists, ErrNotFound, ErrNotDir, nil}},
		{"Stat", func(nn *NameNode, p *sim.Proc, path string) error { _, err := nn.Stat(p, path); return err },
			[4]error{nil, ErrNotFound, ErrNotDir, ErrNotFound}},
		{"GetBlockLocations", func(nn *NameNode, p *sim.Proc, path string) error {
			_, err := nn.GetBlockLocations(p, path)
			return err
		}, [4]error{ErrIsDir, ErrNotFound, ErrNotDir, ErrNotFound}},
		{"List", func(nn *NameNode, p *sim.Proc, path string) error { _, err := nn.List(p, path); return err },
			[4]error{nil, ErrNotFound, ErrNotDir, ErrNotFound}},
		{"Delete", func(nn *NameNode, p *sim.Proc, path string) error { _, err := nn.Delete(p, path, false); return err },
			[4]error{ErrInvalidPath, ErrNotFound, ErrNotDir, ErrNotFound}},
		{"Rename(src)", func(nn *NameNode, p *sim.Proc, path string) error { return nn.Rename(p, path, "/d/moved") },
			[4]error{ErrInvalidPath, ErrNotFound, ErrNotDir, ErrNotFound}},
		{"Rename(dst)", func(nn *NameNode, p *sim.Proc, path string) error { return nn.Rename(p, "/d/r", path) },
			[4]error{ErrInvalidPath, ErrNotFound, ErrNotDir, nil}},
		{"SetPermission", func(nn *NameNode, p *sim.Proc, path string) error { return nn.SetPermission(p, path, 0o600) },
			[4]error{ErrInvalidPath, ErrNotFound, ErrNotDir, ErrNotFound}},
		{"SetOwner", func(nn *NameNode, p *sim.Proc, path string) error { return nn.SetOwner(p, path, "u") },
			[4]error{ErrInvalidPath, ErrNotFound, ErrNotDir, ErrNotFound}},
		{"AttachBlocks", func(nn *NameNode, p *sim.Proc, path string) error {
			return nn.AttachBlocks(p, path, 0, []blocks.BlockID{1}, 1)
		}, [4]error{ErrInvalidPath, ErrNotFound, ErrNotDir, ErrNotFound}},
		{"SetQuota", func(nn *NameNode, p *sim.Proc, path string) error { return nn.SetQuota(p, path, 10, 0) },
			[4]error{ErrInvalidPath, ErrNotFound, ErrNotDir, ErrNotFound}},
		{"Quota", func(nn *NameNode, p *sim.Proc, path string) error { _, err := nn.Quota(p, path); return err },
			[4]error{nil, ErrNotFound, ErrNotDir, ErrNotFound}},
		{"ContentSummary", func(nn *NameNode, p *sim.Proc, path string) error {
			_, _, _, err := nn.ContentSummary(p, path)
			return err
		}, [4]error{nil, ErrNotFound, ErrNotDir, ErrNotFound}},
	}
	malformed := []string{"", "d/x", "//", "/d//x", "/d/./x", "/d/../x", "/d/x/.."}

	h := newHarness(t)
	nn := h.ns.NameNodes()[0]
	h.run(t, func(p *sim.Proc) {
		if _, err := nn.Mkdir(p, "/d", 0o755); err != nil {
			t.Error(err)
			return
		}
		for _, f := range []string{"/d/f", "/d/r"} {
			if _, err := nn.Create(p, f, 0); err != nil {
				t.Error(err)
				return
			}
		}
		for _, op := range ops {
			for _, path := range malformed {
				p.Flush()
				opsBefore, busyBefore := nn.Ops, nn.CPU().BusyIntegral()
				if err := op.run(nn, p, path); !errors.Is(err, ErrInvalidPath) {
					t.Errorf("%s(%q) = %v, want %v", op.name, path, err, ErrInvalidPath)
				}
				p.Flush()
				if nn.Ops != opsBefore || nn.CPU().BusyIntegral() != busyBefore {
					t.Errorf("%s(%q): a path rejected by validation was counted or billed (ops %d→%d, busy %d→%d)",
						op.name, path, opsBefore, nn.Ops, busyBefore, nn.CPU().BusyIntegral())
				}
			}
			missing := "/d/missing-" + strings.ToLower(op.name)
			for i, path := range []string{"/", "/nope/x", "/d/f/x", missing} {
				opsBefore, busyBefore := nn.Ops, nn.CPU().BusyIntegral()
				err := op.run(nn, p, path)
				if want := op.want[i]; !errors.Is(err, want) || (want == nil && err != nil) {
					t.Errorf("%s(%q) = %v, want %v", op.name, path, err, want)
				}
				p.Flush()
				// Past validation and the root rule, the operation is served:
				// counted and billed whatever its outcome.
				served := i > 0 || op.want[0] == nil
				if counted := nn.Ops != opsBefore; counted != served {
					t.Errorf("%s(%q): counted=%v, want %v", op.name, path, counted, served)
				}
				if billed := nn.CPU().BusyIntegral() != busyBefore; billed != served {
					t.Errorf("%s(%q): billed=%v, want %v", op.name, path, billed, served)
				}
			}
		}
	})
}

// TestHintCacheKeysAreNormalizedPrefixes pins the hint cache's key set after
// a fixed sequence of operations: the keys are the normalized path prefixes
// ("/a", "/a/b", ...) the cache held when every level's key was a freshly
// joined string, so a path's spelling never decides what is cached.
func TestHintCacheKeysAreNormalizedPrefixes(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.MkdirAll(p, "/a/b/c"); err != nil {
			t.Error(err)
		}
		if _, err := cl.Stat(p, "//a/b/c/f/"); !errors.Is(err, ErrNotFound) {
			t.Errorf("stat of a missing file: %v", err)
		}
		if _, err := cl.Stat(p, "/a/b/c"); err != nil {
			t.Error(err)
		}
		if err := cl.Mkdir(p, "/a/keep"); err != nil {
			t.Error(err)
		}
		if err := cl.Rename(p, "/a/b", "/a/x"); err != nil {
			t.Error(err)
		}
		if _, err := cl.Stat(p, "/a/x/c/"); err != nil {
			t.Error(err)
		}
		if err := cl.Delete(p, "/a/x/c", false); err != nil {
			t.Error(err)
		}
	})
	var keys []string
	for k := range cl.CurrentNameNode().cache.items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := "/a /a/x"
	if got := strings.Join(keys, " "); got != want {
		t.Errorf("hint cache keys = %q, want %q", got, want)
	}
}
