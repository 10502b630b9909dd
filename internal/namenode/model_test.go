package namenode

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"hopsfscl/internal/nsmodel"
	"hopsfscl/internal/sim"
)

// TestPropFSMatchesModel runs random operation sequences through the full
// stack (client -> NN -> transactions -> NDB commit protocol) and through
// the oracle, comparing every outcome. This is the deep end-to-end
// correctness check of the metadata layer.
func TestPropFSMatchesModel(t *testing.T) {
	if testing.Short() {
		t.Skip("model checking is slow")
	}
	prop := func(seed int64) bool {
		h := newHarness(t)
		cl := h.client(1)
		m := nsmodel.New()
		rng := rand.New(rand.NewSource(seed))

		// A pool of path components keeps collisions frequent enough to
		// exercise the error paths.
		pool := []string{"a", "b", "c", "d"}
		randPath := func() string {
			depth := rng.Intn(3) + 1
			comps := make([]string, depth)
			for i := range comps {
				comps[i] = pool[rng.Intn(len(pool))]
			}
			return "/" + strings.Join(comps, "/")
		}

		okAll := true
		h.env.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < 120 && okAll; i++ {
				op := rng.Intn(6)
				path := randPath()
				var gotErr, wantErr error
				desc := ""
				switch op {
				case 0:
					desc = "mkdir " + path
					gotErr = cl.Mkdir(p, path)
					wantErr = m.Mkdir(path, 0)
				case 1:
					desc = "create " + path
					gotErr = cl.Create(p, path, 0)
					wantErr = m.Create(path, 0, 0)
				case 2:
					recursive := rng.Intn(2) == 0
					desc = fmt.Sprintf("delete %s r=%v", path, recursive)
					gotErr = cl.Delete(p, path, recursive)
					wantErr = m.Delete(path, recursive)
				case 3:
					dst := randPath()
					desc = "rename " + path + " -> " + dst
					gotErr = cl.Rename(p, path, dst)
					wantErr = m.Rename(path, dst)
				case 4:
					desc = "list " + path
					kids, err := cl.List(p, path)
					gotErr = err
					want, werr := m.List(path)
					wantErr = werr
					if err == nil && werr == nil {
						gotNames := names(kids)
						wantNames := make([]string, len(want))
						for j, e := range want {
							wantNames[j] = e.Name
						}
						if strings.Join(gotNames, ",") != strings.Join(wantNames, ",") {
							t.Errorf("seed %d step %d %s: list %v, model %v", seed, i, desc, gotNames, wantNames)
							okAll = false
							return
						}
					}
				case 5:
					desc = "stat " + path
					ino, err := cl.Stat(p, path)
					gotErr = err
					n, werr := m.Stat(path)
					wantErr = werr
					if err == nil && werr == nil && ino.Dir != n.Dir {
						t.Errorf("seed %d step %d %s: dir=%v, model dir=%v", seed, i, desc, ino.Dir, n.Dir)
						okAll = false
						return
					}
				}
				if Outcome(nsmodel.Op{Err: gotErr}).Err != wantErr {
					t.Errorf("seed %d step %d %s: fs=%v model=%v", seed, i, desc, gotErr, wantErr)
					okAll = false
					return
				}
			}
		})
		h.env.RunFor(5 * time.Minute)
		return okAll
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// refSplitPath is the reference validator the path value is checked
// against: split on "/" after trimming the slash runs at both ends.
func refSplitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, ErrInvalidPath
	}
	if path == "/" {
		return nil, nil
	}
	parts := strings.Split(strings.Trim(path, "/"), "/")
	for _, c := range parts {
		if c == "" || c == "." || c == ".." {
			return nil, ErrInvalidPath
		}
	}
	return parts, nil
}

// TestPropSplitPath checks the path value against the reference validator,
// over arbitrary strings (it never panics) and over random strings built
// from path-shaped pieces (slash runs at both ends, dot components, empty
// components): the two accept the same inputs, the components are the
// reference's, and every prefix is the re-joined components — the hint
// cache's key — while being a substring of the input.
func TestPropSplitPath(t *testing.T) {
	agrees := func(raw string) bool {
		want, werr := refSplitPath(raw)
		fp, err := splitPath(raw)
		if werr != nil {
			return errors.Is(err, ErrInvalidPath)
		}
		if err != nil || fp.depth() != len(want) {
			return false
		}
		for i, c := range want {
			if fp.comp(i) != c {
				return false
			}
		}
		for i := 0; i <= len(want); i++ {
			pre := fp.prefix(i)
			if pre != "/"+strings.Join(want[:i], "/") || !strings.Contains(raw, pre) {
				return false
			}
		}
		if len(want) == 0 {
			return true
		}
		up := fp.parent()
		return fp.name() == want[len(want)-1] && up.depth() == len(want)-1 &&
			up.prefix(up.depth()) == fp.prefix(len(want)-1)
	}
	if err := quick.Check(agrees, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	pieces := []string{"/", "/", "/", "a", "bc", "d.e", ".", "..", "ü"}
	rng := rand.New(rand.NewSource(1))
	valid := 0
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(10); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		raw := b.String()
		if !agrees(raw) {
			t.Fatalf("splitPath(%q) disagrees with the reference", raw)
		}
		if _, err := splitPath(raw); err == nil {
			valid++
		}
	}
	if valid < 1000 {
		t.Fatalf("only %d of 20000 generated paths were valid: the generator is not exercising accepted paths", valid)
	}
}

// TestPropHintCacheNeverAffectsCorrectness poisons the inode hint cache
// with garbage and verifies operations still resolve correctly: a hint only
// influences coordinator placement, never results.
func TestPropHintCacheNeverAffectsCorrectness(t *testing.T) {
	prop := func(seed int64, poison uint64) bool {
		h := newHarness(t)
		cl := h.client(2)
		ok := true
		h.env.Spawn("driver", func(p *sim.Proc) {
			if err := cl.MkdirAll(p, "/x/y"); err != nil {
				t.Error(err)
				ok = false
				return
			}
			if err := cl.Create(p, "/x/y/f", 0); err != nil {
				t.Error(err)
				ok = false
				return
			}
			// Poison every NN's hint cache.
			for _, nn := range h.ns.NameNodes() {
				nn.cache.put("/x", poison, RootID)
				nn.cache.put("/x/y", poison%97, poison)
			}
			ino, err := cl.Stat(p, "/x/y/f")
			if err != nil || ino.Name != "f" {
				t.Errorf("stat with poisoned cache: %v %+v", err, ino)
				ok = false
			}
		})
		h.env.RunFor(time.Minute)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
