package main

// adapter.go holds every call the benchmark makes into the repository's
// packages, so the API surface the yardstick depends on is this one file.
// The rest of the benchmark sees a bed (one built deployment), plain Go
// values and flat name→number snapshots.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hopsfscl/internal/chaos"
	"hopsfscl/internal/core"
	"hopsfscl/internal/namenode"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/profile"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/workload"
)

// opNames are the per-layer metric names of the operation classes, indexed
// by workload.Op (index 0 is unused).
var opNames = [...]string{
	workload.OpMkdir: "mkdir", workload.OpCreate: "create", workload.OpStat: "stat",
	workload.OpRead: "read", workload.OpList: "list", workload.OpDelete: "delete",
	workload.OpRename: "rename", workload.OpSetPerm: "setperm",
}

var mixes = map[string]workload.Mix{
	"spotify": workload.SpotifyMix,
	// Mutation only: every op takes row locks and a linear-2PC commit.
	"mutate": {
		workload.OpCreate: 0.30, workload.OpDelete: 0.28, workload.OpRename: 0.15,
		workload.OpSetPerm: 0.20, workload.OpMkdir: 0.07,
	},
}

// The harness's client shape: two home datasets per client, 95 % affinity.
const (
	homeDirsPerClient = 2
	homeAffinity      = 0.95
)

// bed is one built deployment with its closed-loop clients.
type bed struct {
	d   *core.Deployment
	rec *recorder
	// stop ends every client loop at its next op boundary.
	stop bool
	// steps counts generator draws, noTarget those that found nothing to
	// act on and idled (not attempts). The warm-up rule counts steps, so a
	// drained file pool cannot stall it.
	steps, noTarget int64
	// inCall is the number of client calls in flight.
	inCall int
	// gone is a ring of paths a client saw deleted or renamed away.
	gone  [4096]string
	goneN int
}

// build stands up the spec's deployment and spawns its clients; nothing
// runs until runFor.
func build(s spec, seed int64, rec *recorder) (*bed, error) {
	setup, ok := core.SetupByName(s.setup)
	if !ok {
		return nil, fmt.Errorf("unknown setup %q", s.setup)
	}
	opts := core.DefaultOptions(setup)
	opts.MetadataServers = s.nns
	opts.ClientsPerServer = s.clientsPerNN
	opts.StorageNodes = s.storageNodes
	opts.PartitionsPerTable = s.partitions
	opts.Shards = s.shards
	opts.Seed = seed
	d, err := core.Build(opts)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", s.name, err)
	}
	b := &bed{d: d, rec: rec}
	mix := mixes[s.mix]
	for i, fs := range d.Clients {
		fs := recFS{fs: fs, b: b}
		home := d.Namespace.HomeDirsFor(i, homeDirsPerClient)
		gen := workload.NewAffineGenerator(d.Namespace, mix, seed+int64(i), home, homeAffinity)
		d.Env.Spawn("bench-client", func(p *sim.Proc) {
			for !b.stop {
				_, err := gen.Step(p, fs)
				b.steps++
				if errors.Is(err, workload.ErrNoTarget) {
					b.noTarget++
				}
			}
		})
	}
	return b, nil
}

func (b *bed) clients() int               { return len(b.d.Clients) }
func (b *bed) runFor(d time.Duration)     { b.d.Env.RunFor(d) }
func (b *bed) now() time.Duration         { return b.d.Env.Now() }
func (b *bed) close()                     { b.d.Close() }
func (b *bed) enableTracing(capacity int) { b.d.EnableTracing(capacity) }

// recFS times every file system call from outside and hands the outcome to
// the recorder. It allocates nothing.
type recFS struct {
	fs workload.FS
	b  *bed
}

func (r recFS) begin(p *sim.Proc) time.Duration {
	r.b.inCall++
	return p.Now()
}

// done records one finished call. An outcome error (not found after a
// concurrent delete, and the like) is the file system answering correctly;
// anything else is a failed operation.
func (r recFS) done(p *sim.Proc, op workload.Op, t0 time.Duration, err error) error {
	r.b.inCall--
	r.b.rec.observe(int(op), p.Now()-t0, err != nil, err != nil && !namenode.IsOutcomeError(err))
	return err
}

func (r recFS) Mkdir(p *sim.Proc, path string) error {
	t0 := r.begin(p)
	return r.done(p, workload.OpMkdir, t0, r.fs.Mkdir(p, path))
}
func (r recFS) Create(p *sim.Proc, path string) error {
	t0 := r.begin(p)
	return r.done(p, workload.OpCreate, t0, r.fs.Create(p, path))
}
func (r recFS) Stat(p *sim.Proc, path string) error {
	t0 := r.begin(p)
	return r.done(p, workload.OpStat, t0, r.fs.Stat(p, path))
}
func (r recFS) Read(p *sim.Proc, path string) error {
	t0 := r.begin(p)
	return r.done(p, workload.OpRead, t0, r.fs.Read(p, path))
}
func (r recFS) List(p *sim.Proc, path string) error {
	t0 := r.begin(p)
	return r.done(p, workload.OpList, t0, r.fs.List(p, path))
}
func (r recFS) Delete(p *sim.Proc, path string) error {
	t0 := r.begin(p)
	err := r.fs.Delete(p, path)
	if err == nil {
		r.b.removed(path)
	}
	return r.done(p, workload.OpDelete, t0, err)
}
func (r recFS) Rename(p *sim.Proc, src, dst string) error {
	t0 := r.begin(p)
	err := r.fs.Rename(p, src, dst)
	if err == nil {
		r.b.removed(src)
	}
	return r.done(p, workload.OpRename, t0, err)
}
func (r recFS) SetPermission(p *sim.Proc, path string) error {
	t0 := r.begin(p)
	return r.done(p, workload.OpSetPerm, t0, r.fs.SetPermission(p, path))
}

func (b *bed) removed(path string) {
	b.gone[b.goneN%len(b.gone)] = path
	b.goneN++
}

// snapshot returns every cumulative counter the per-layer metrics are
// built from, as one flat map: the registry's samples under their own
// names (labelled series summed under the bare name too), plus the
// counters only reachable through accessors under an "x." prefix.
func (b *bed) snapshot() map[string]float64 {
	d := b.d
	m := make(map[string]float64, 512)
	for _, s := range d.Registry.Snapshot() {
		m[s.Name] = s.Value
		for i := 0; i < len(s.Name); i++ {
			if s.Name[i] == '{' {
				m[s.Name[:i]] += s.Value
				break
			}
		}
	}
	m["x.now_ns"] = float64(d.Env.Now())
	m["x.no_target"] = float64(b.noTarget)
	m["x.net.msgs"] = float64(d.Net.TotalMessages())
	m["x.net.bytes"] = float64(d.Net.TotalBytes())
	m["x.net.xaz_bytes"] = float64(d.Net.CrossZoneBytes())
	m["x.net.dropped"] = float64(d.Net.Dropped())
	for _, n := range d.StorageNodes() {
		r, w := n.NICBytes()
		m["x.nic.storage_bytes"] += float64(r + w)
	}
	for _, n := range d.ServerNodes() {
		r, w := n.NICBytes()
		m["x.nic.server_bytes"] += float64(r + w)
	}
	for _, n := range d.ServerRequests() {
		m["x.nn.reqs"] += float64(n)
	}
	for _, r := range d.ServerCPUs() {
		m["x.nn.busy"] += float64(r.BusyIntegral())
		m["x.nn.cap"] += float64(r.Capacity())
	}
	for _, c := range d.MetaClusters() {
		m["x.ndb.commits"] += float64(c.Stats.Committed)
		m["x.ndb.aborts"] += float64(c.Stats.Aborted)
		m["x.ndb.reads"] += float64(c.Stats.Reads)
		m["x.ndb.writes"] += float64(c.Stats.Writes)
		for _, dn := range c.DataNodes() {
			for t, r := range dn.Threads() {
				name := ndb.ThreadType(t).String()
				m["x.ndb.busy."+name] += float64(r.BusyIntegral())
				m["x.ndb.cap."+name] += float64(r.Capacity())
			}
		}
	}
	return m
}

// threadNames are the NDB thread classes in Table II order.
func threadNames() []string {
	var out []string
	for t := ndb.LDM; t <= ndb.MAIN; t++ {
		out = append(out, t.String())
	}
	return out
}

// criticalPath analyses the traced window's span trees: the share of the
// summed critical path per category (keyed by the profiler's own labels),
// the sink's drop count, and the folded stacks for -profiles.
func (b *bed) criticalPath() (shares map[string]float64, dropped int64, folded string) {
	sink := b.d.Tracer.Sink()
	spans := sink.Spans()
	rep := profile.Analyze(spans)
	byCat, total := rep.Totals()
	shares = make(map[string]float64, len(byCat))
	for c, t := range byCat {
		if total > 0 {
			shares[profile.Category(c).String()] = float64(t) / float64(total)
		} else {
			shares[profile.Category(c).String()] = 0
		}
	}
	return shares, sink.Dropped(), profile.FoldedStacks(spans)
}

// quiesce stops the clients, lets the deployment settle — leader election
// converges only after a couple of rounds, longer than most windows — and
// then finds an instant with no transaction in flight (the election
// heartbeats keep running; their transactions are short).
func (b *bed) quiesce() error {
	b.stop = true
	if settled := 3 * b.d.NS.Config().ElectionRound; b.now() < settled {
		b.runFor(settled - b.now())
	}
	for deadline := b.now() + 2*time.Second; ; {
		var open int64
		for _, c := range b.d.MetaClusters() {
			open += c.InFlightTxns()
		}
		if open == 0 && b.inCall == 0 {
			return nil
		}
		if b.now() >= deadline {
			return fmt.Errorf("quiesce: %d transactions and %d client calls still open after 2 s", open, b.inCall)
		}
		b.runFor(2 * time.Millisecond)
	}
}

// verify is the correctness gate, run on the quiesced deployment: the
// cross-layer audit over every shard, then a sample of paths on which one
// client's Stat must agree with what the workload did — files the shared
// namespace model holds must exist, files a client saw deleted or renamed
// away must not.
func (b *bed) verify(seed int64, samplePaths int) []string {
	var bad []string
	for _, v := range chaos.NewAuditor(b.d).Check(b.now(), true, true) {
		bad = append(bad, "audit: "+v.String())
	}
	rng := rand.New(rand.NewSource(seed))
	live := b.d.Namespace.AllFiles()
	gone := b.gone[:min(b.goneN, len(b.gone))]
	type probe struct {
		path   string
		exists bool
	}
	var probes []probe
	for i := 0; i < samplePaths && len(live) > 0; i++ {
		probes = append(probes, probe{live[rng.Intn(len(live))], true})
	}
	for i := 0; i < samplePaths/4 && len(gone) > 0; i++ {
		probes = append(probes, probe{gone[rng.Intn(len(gone))], false})
	}
	fs := b.d.Clients[0]
	done := false
	b.d.Env.Spawn("bench-verify", func(p *sim.Proc) {
		for _, pr := range probes {
			err := fs.Stat(p, pr.path)
			switch {
			case pr.exists && err != nil:
				bad = append(bad, fmt.Sprintf("stat %s: model holds it, file system says %v", pr.path, err))
			case !pr.exists && !errors.Is(err, namenode.ErrNotFound):
				bad = append(bad, fmt.Sprintf("stat %s: removed by a client, file system says %v", pr.path, err))
			}
		}
		done = true
	})
	for deadline := b.now() + 10*time.Second; !done && b.now() < deadline; {
		b.runFor(10 * time.Millisecond)
	}
	if !done {
		bad = append(bad, "verify: the path sample did not finish in 10 s of virtual time")
	}
	sort.Strings(bad)
	return bad
}
