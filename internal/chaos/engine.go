package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/namenode"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/nsmodel"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// Config parameterizes a campaign run.
type Config struct {
	// Clients is the number of workload clients (default 6).
	Clients int
	// Duration is the campaign length on virtual time. Zero derives it
	// from the schedule: last step plus a settle tail.
	Duration time.Duration
	// Seed seeds the workload's operation mix (independent from the
	// deployment seed so the two can be varied separately).
	Seed int64
}

// The campaign recipe, shared by every campaign, drill and CLI.
const (
	// opGap is the think time between a client's operations.
	opGap = 2 * time.Millisecond
	// largeEvery makes every Nth create a block-layer file write of
	// largeSize bytes (one block).
	largeEvery = 20
	largeSize  = 256 << 10
	// settleAfterStep is how long the workload runs after each fault step
	// before the engine quiesces and audits.
	settleAfterStep = 500 * time.Millisecond
	// auditBudget bounds the quiesce drain. It must exceed the slowest
	// possible in-flight operation (a block transfer timeout), or a merely
	// slow operation would be misreported as a stuck transaction.
	auditBudget = 45 * time.Second
	// leaderSettle is the quiet time after the last fault before leader
	// uniqueness is audited: election rows expire after 5s and rounds run
	// every 2s, so views need several seconds to converge.
	leaderSettle = 10 * time.Second
	// gapThreshold classifies unavailability: any gap between consecutive
	// successful operations longer than this counts as an outage window —
	// far above the healthy op cadence.
	gapThreshold = 400 * time.Millisecond
	// pollStep is how often a quiesce re-examines the deployment.
	pollStep = 2 * time.Millisecond
)

func (c Config) withDefaults(sched Schedule) Config {
	if c.Clients <= 0 {
		c.Clients = 6
	}
	if c.Duration <= 0 {
		c.Duration = sched.End() + leaderSettle + 2*time.Second
		if c.Duration < 20*time.Second {
			c.Duration = 20 * time.Second
		}
	}
	return c
}

// Snapshot captures cluster state at one campaign checkpoint, for
// drill-style reporting.
type Snapshot struct {
	Label     string
	Now       time.Duration
	OpsPerSec float64 // successful ops/s since the previous snapshot
	LiveNDB   int
	TotalNDB  int
	LeaderID  int // 0 when no leader is elected
	NewViol   int // violations found at this checkpoint
}

// Engine drives one fault campaign over a deployment: it runs the
// workload, executes the schedule, audits invariants at checkpoints, and
// judges the operation history.
type Engine struct {
	d     *core.Deployment
	cfg   Config
	sched Schedule
	aud   *Auditor

	// dbs are the deployment's NDB clusters in shard order, for the faults
	// that name one datanode of one shard; sharded (len(dbs) > 1) selects
	// the workload shape that crosses shard boundaries.
	dbs     []*ndb.Cluster
	sharded bool

	agents []*agent
	// history is every call the agents' clients made; oks are the instants
	// at which agent operations succeeded, in order, for availability.
	history nsmodel.History
	oks     []time.Duration
	paused  bool
	stopped bool
	// pauses are the audit quiesce windows: the workload is deliberately
	// stopped, so they are excluded from availability accounting.
	pauses []Window

	// fault-state tracking for the settled gate.
	downZones map[simnet.ZoneID]bool
	downNNs   map[int]bool
	// downDNs is keyed by (shard, datanode index) so per-cluster faults in
	// a sharded deployment track independently.
	downDNs   map[[2]int]bool
	parts     map[[2]simnet.ZoneID]bool
	degr      map[[2]simnet.ZoneID]bool
	lastFault time.Duration

	snapshots []Snapshot
	lastSnap  struct {
		at time.Duration
		ok int
	}
	marks []mark // fault injections, for MTTR
}

// mark is one degrading step's injection time.
type mark struct {
	step Step
	at   time.Duration
}

// NewEngine prepares a campaign over an existing deployment. The
// deployment must be a HopsFS variant (the auditor inspects NDB state).
func NewEngine(d *core.Deployment, sched Schedule, cfg Config) (*Engine, error) {
	if d.NS == nil {
		return nil, fmt.Errorf("chaos: deployment has no NDB/namenode stack")
	}
	dbs := d.MetaClusters()
	e := &Engine{
		d:         d,
		cfg:       cfg.withDefaults(sched),
		sched:     append(Schedule{}, sched...),
		aud:       NewAuditor(d),
		dbs:       dbs,
		sharded:   len(dbs) > 1,
		downZones: make(map[simnet.ZoneID]bool),
		downNNs:   make(map[int]bool),
		downDNs:   make(map[[2]int]bool),
		parts:     make(map[[2]simnet.ZoneID]bool),
		degr:      make(map[[2]simnet.ZoneID]bool),
	}
	e.sched.Sort()
	if err := e.validate(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Engine) validate() error {
	nns := len(e.d.NS.NameNodes())
	zones := e.d.Net.Topology().Zones()
	for _, st := range e.sched {
		if err := st.checkRanges(); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		switch st.Kind {
		case FaultKillNN, FaultRestartNN:
			if st.Node < 1 || st.Node > nns {
				return fmt.Errorf("chaos: step %q: no metadata server %d", st, st.Node)
			}
		case FaultCrashDN, FaultRejoinDN:
			if st.Shard < 0 || st.Shard >= len(e.dbs) {
				return fmt.Errorf("chaos: step %q: no shard %d", st, st.Shard)
			}
			if st.Node < 0 || st.Node >= len(e.dbs[st.Shard].DataNodes()) {
				return fmt.Errorf("chaos: step %q: no NDB datanode %d", st, st.Node)
			}
		case FaultFailZone, FaultRecoverZone:
			if int(st.Zone) < 1 || int(st.Zone) > zones {
				return fmt.Errorf("chaos: step %q: no zone %d", st, st.Zone)
			}
		case FaultPartition, FaultHeal, FaultSlowLink, FaultLossyLink, FaultRestoreLink:
			if int(st.Zone) < 1 || int(st.Zone) > zones || int(st.ZoneB) < 1 || int(st.ZoneB) > zones || st.Zone == st.ZoneB {
				return fmt.Errorf("chaos: step %q: bad zone pair", st)
			}
		default:
			return fmt.Errorf("chaos: unknown fault kind %q", st.Kind)
		}
	}
	return nil
}

// Run executes the campaign and returns its report.
func (e *Engine) Run() (*Report, error) {
	env := e.d.Env
	e.spawnAgents()
	// Warm up: let the clients build their directories and election
	// complete before the first fault.
	env.RunFor(2 * time.Second)
	for _, a := range e.agents {
		if a.setupErr != nil {
			return nil, fmt.Errorf("chaos: client %d setup failed: %w", a.idx, a.setupErr)
		}
	}
	start := env.Now()
	e.lastSnap.at = start
	e.checkpoint("baseline")

	// Schedule step times are workload time: audit quiesces stop the
	// workload clock, so each checkpoint's pause shifts later steps by the
	// pause length. Without this a slow drain (e.g. auditing under a
	// partition) would eat the dwell time of every subsequent fault.
	for _, st := range e.sched {
		target := start + st.At + e.pausedTotal()
		if now := env.Now(); target > now {
			env.RunFor(target - now)
		}
		if err := e.apply(st); err != nil {
			return nil, err
		}
		env.RunFor(settleAfterStep)
		e.checkpoint(st.String())
	}

	end := start + e.cfg.Duration + e.pausedTotal()
	if now := env.Now(); end > now {
		env.RunFor(end - now)
	}
	e.checkpoint("final")
	e.stopped = true
	env.RunFor(10 * time.Millisecond)

	return e.report(start, env.Now()), nil
}

// apply executes one schedule step. Recovery actions that need simulated
// time (datanode resync) run in spawned processes, concurrently with the
// workload — recovery time is part of what campaigns measure.
func (e *Engine) apply(st Step) error {
	d := e.d
	now := d.Env.Now()
	if st.Kind.degrades() {
		e.marks = append(e.marks, mark{step: st, at: now})
		d.Registry.Counter("chaos.faults", "kind", string(st.Kind)).Add(1)
	}
	e.lastFault = now
	switch st.Kind {
	case FaultFailZone:
		e.downZones[st.Zone] = true
		d.FailZone(st.Zone)
	case FaultRecoverZone:
		delete(e.downZones, st.Zone)
		z := st.Zone
		d.Env.Spawn("chaos-recover-zone", func(p *sim.Proc) {
			d.RecoverZone(p, z)
			e.rejoinStragglers(p)
		})
	case FaultPartition:
		e.parts[zpair(st.Zone, st.ZoneB)] = true
		d.Partition(st.Zone, st.ZoneB)
	case FaultHeal:
		delete(e.parts, zpair(st.Zone, st.ZoneB))
		d.Heal(st.Zone, st.ZoneB)
		// Arbitration losers shut themselves down during the partition and
		// stay down after the network heals; sweep them back in, as an
		// operator restarting the losing side would.
		d.Env.Spawn("chaos-heal-rejoin", e.rejoinStragglers)
	case FaultKillNN:
		e.downNNs[st.Node] = true
		d.NS.NameNodes()[st.Node-1].Fail()
	case FaultRestartNN:
		delete(e.downNNs, st.Node)
		d.NS.NameNodes()[st.Node-1].Recover()
	case FaultCrashDN:
		e.downDNs[[2]int{st.Shard, st.Node}] = true
		e.dbs[st.Shard].DataNodes()[st.Node].Node.Fail()
	case FaultRejoinDN:
		delete(e.downDNs, [2]int{st.Shard, st.Node})
		db := e.dbs[st.Shard]
		dn := db.DataNodes()[st.Node]
		d.Env.Spawn("chaos-rejoin-dn", func(p *sim.Proc) { db.Rejoin(p, dn) })
	case FaultSlowLink:
		e.degr[zpair(st.Zone, st.ZoneB)] = true
		d.Net.DegradeLink(st.Zone, st.ZoneB, st.Factor, 0)
	case FaultLossyLink:
		e.degr[zpair(st.Zone, st.ZoneB)] = true
		d.Net.DegradeLink(st.Zone, st.ZoneB, 1, st.Loss)
	case FaultRestoreLink:
		delete(e.degr, zpair(st.Zone, st.ZoneB))
		d.Net.RestoreLink(st.Zone, st.ZoneB)
		// Lossy links can trick the heartbeat ring into spurious failure
		// declarations (and even suicide-by-arbitration); sweep the
		// casualties back in once the link is clean.
		d.Env.Spawn("chaos-restore-rejoin", e.rejoinStragglers)
	}
	return nil
}

// rejoinStragglers rejoins every storage node that is down without the
// schedule saying so: arbitration losers after a partition, and heartbeat
// false-positives after a lossy link. Nodes in deliberately failed zones
// or deliberately crashed are left alone.
func (e *Engine) rejoinStragglers(p *sim.Proc) {
	for s, db := range e.dbs {
		for i, dn := range db.DataNodes() {
			if e.downDNs[[2]int{s, i}] || e.downZones[dn.Node.Zone()] {
				continue
			}
			db.Rejoin(p, dn)
		}
	}
}

func zpair(a, b simnet.ZoneID) [2]simnet.ZoneID {
	if a > b {
		a, b = b, a
	}
	return [2]simnet.ZoneID{a, b}
}

// settled reports whether no fault is active and the cluster has had time
// to converge (elections re-run, detection complete).
func (e *Engine) settled() bool {
	if len(e.downZones) > 0 || len(e.downNNs) > 0 || len(e.downDNs) > 0 ||
		len(e.parts) > 0 || len(e.degr) > 0 {
		return false
	}
	return e.d.Env.Now()-e.lastFault >= leaderSettle
}

// checkpoint quiesces the workload, audits invariants, records a
// snapshot, and resumes.
func (e *Engine) checkpoint(label string) {
	pauseStart := e.d.Env.Now()
	quiesced := e.quiesce()
	if quiesced && e.sharded {
		// With the workload drained, any durable cross-shard intent left in
		// storage belongs to a coordinator that died mid-commit: recover it
		// now so the auditor sees a namespace with no commit half-applied.
		// The sweep runs the clock, and background work — a leader
		// election's transaction — may begin meanwhile: drain again before
		// the audit. (Unsharded deployments never write intents.)
		e.sweepIntents()
		quiesced = e.quiesce()
	}
	viol := e.aud.Check(e.d.Env.Now(), quiesced, e.settled())
	if !quiesced {
		// The drain itself is an invariant: a workload that cannot drain
		// within the budget means a transaction or lock is stuck.
		v := Violation{Invariant: "txn-quiescence", Detail: fmt.Sprintf(
			"workload failed to drain within %v at %q (stuck transaction or lock)", auditBudget, label)}
		viol = append(viol, v)
		e.aud.Violations = append(e.aud.Violations, v)
	}
	e.pauses = append(e.pauses, Window{From: pauseStart, To: e.d.Env.Now()})
	e.snapshot(label, len(viol))
	e.paused = false
}

// sweepIntents runs the cross-shard intent resolver to completion while the
// workload is quiesced. Resolution is itself transactional, so the run
// drains back to zero in-flight transactions before returning.
func (e *Engine) sweepIntents() {
	done := false
	e.d.Env.Spawn("chaos-intent-sweep", func(p *sim.Proc) {
		_, _ = e.d.NS.ResolvePendingIntents(p)
		done = true
	})
	e.d.Env.RunUntil(func() bool { return done }, pollStep, auditBudget)
}

// pausedTotal returns the total time spent in audit pauses so far.
func (e *Engine) pausedTotal() time.Duration {
	var total time.Duration
	for _, w := range e.pauses {
		total += w.To - w.From
	}
	return total
}

// pausedBetween returns how much of [from, to) the workload spent
// deliberately paused for audits.
func (e *Engine) pausedBetween(from, to time.Duration) time.Duration {
	var total time.Duration
	for _, w := range e.pauses {
		lo, hi := w.From, w.To
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// quiesce pauses the agents and runs the simulation until in-flight
// operations, transactions, and row locks drain, within the audit budget.
func (e *Engine) quiesce() bool {
	e.paused = true
	return e.d.Env.RunUntil(e.drained, pollStep, auditBudget)
}

// drained reports whether no agent is mid-operation (client-side retries
// and block transfers included) and the metadata stack is idle.
func (e *Engine) drained() bool {
	for _, a := range e.agents {
		if a.busy {
			return false
		}
	}
	return e.d.Idle()
}

func (e *Engine) snapshot(label string, newViol int) {
	now := e.d.Env.Now()
	ok := len(e.oks)
	rate := 0.0
	// Rate over the time the workload was actually allowed to run: audit
	// pauses are not outages.
	if dt := now - e.lastSnap.at - e.pausedBetween(e.lastSnap.at, now); dt > 0 {
		rate = float64(ok-e.lastSnap.ok) / dt.Seconds()
	}
	live, total := e.d.LiveStorageNodes()
	leaderID := 0
	if l := e.d.NS.ElectedLeader(); l != nil {
		leaderID = l.ID
	}
	e.snapshots = append(e.snapshots, Snapshot{
		Label: label, Now: now, OpsPerSec: rate,
		LiveNDB: live, TotalNDB: total, LeaderID: leaderID, NewViol: newViol,
	})
	e.lastSnap.at = now
	e.lastSnap.ok = ok
}

// spawnAgents starts the workload clients, spread over the deployment's
// zones, each recording into the engine's history.
func (e *Engine) spawnAgents() {
	zones := e.d.Net.Topology().Zones()
	aware := e.d.Setup.System == core.HopsFSCL
	singleZone := e.d.Setup.Zones == 1
	for i := 0; i < e.cfg.Clients; i++ {
		z := simnet.ZoneID(1 + i%zones)
		if singleZone {
			z = 2
		}
		domain := simnet.ZoneUnset
		if aware {
			domain = z
		}
		a := &agent{
			e:    e,
			idx:  i,
			cl:   e.d.NS.NewClient(z, simnet.HostID(9000+i), domain),
			rng:  rand.New(rand.NewSource(e.cfg.Seed*1_000_003 + int64(i)*7919 + 13)),
			dir:  fmt.Sprintf("/chaos/c%d", i),
			st:   make(map[string]pathState),
			byst: map[pathState][]string{},
		}
		a.cl.Record(&e.history)
		if e.sharded {
			// A second directory, its children pinned to another shard than
			// the first's (a subtree otherwise lives on one shard): renames
			// into it cross the shard boundary, so sharded campaigns
			// exercise the two-shard commit path. Both directories belong
			// to this agent.
			a.xdir = fmt.Sprintf("/chaos/m%d", i)
		}
		e.agents = append(e.agents, a)
		e.d.Env.Spawn(fmt.Sprintf("chaos-client-%d", i), a.run)
	}
}

// agent is one workload client: it mutates only its own directories and
// always creates fresh names, picking each target by what its earlier
// answers say of it.
type agent struct {
	e   *Engine
	idx int
	cl  *namenode.Client
	rng *rand.Rand
	dir string
	// xdir is the agent's second directory, set only for sharded
	// deployments and pinned away from dir's shard; some renames target it
	// to cross the shard boundary.
	xdir string
	seq  int

	// st is each path's state by the agent's answers, and byst the paths
	// in each state.
	st   map[string]pathState
	byst map[pathState][]string

	busy     bool
	setup    bool
	setupErr error
}

// pathState is what an agent's answers say of one of its paths.
type pathState int

const (
	stAbsent pathState = iota // never created, or gone
	stExists                  // created or observed
	stMaybe                   // a mutation of unknown outcome touched it
)

func (a *agent) run(p *sim.Proc) {
	if err := a.cl.MkdirAll(p, a.dir); err != nil {
		a.setupErr = err
		return
	}
	if a.xdir != "" {
		if err := a.cl.MkdirAll(p, a.xdir); err != nil {
			a.setupErr = err
			return
		}
		if err := a.pinAway(p); err != nil {
			a.setupErr = err
			return
		}
	}
	a.setup = true
	for !a.e.stopped {
		if a.e.paused {
			p.Sleep(time.Millisecond)
			continue
		}
		a.busy = true
		a.op(p)
		a.busy = false
		p.Sleep(opGap)
	}
}

// pinAway pins xdir's children to the shard after the one its id names —
// the shard of dir's children too, as both sit under /chaos — before any row
// exists under it.
func (a *agent) pinAway(p *sim.Proc) error {
	ino, err := a.cl.Stat(p, a.xdir)
	if err != nil {
		return err
	}
	return a.e.d.NS.PinSubtree(ino.ID, int(ino.ID+1)%len(a.e.dbs))
}

// op runs one randomly drawn operation and records it.
func (a *agent) op(p *sim.Proc) {
	r := a.rng.Float64()
	switch {
	case r < 0.28:
		a.create(p)
	case r < 0.42:
		a.remove(p)
	case r < 0.56:
		a.probe(p, "stat", stExists)
	case r < 0.64:
		a.probe(p, "stat", stAbsent)
	case r < 0.78:
		a.probe(p, "read", stExists)
	case r < 0.90:
		a.list(p)
	default:
		a.rename(p)
	}
}

// record counts a finished operation toward availability and moves its
// paths between the agent's target lists by its answer.
func (a *agent) record(op, path, dst string, err error) {
	if err == nil {
		a.e.oks = append(a.e.oks, a.e.d.Env.Now())
	}
	out := namenode.Outcome(nsmodel.Op{Err: err}).Err
	switch {
	case op == "list":
	case out == nsmodel.ErrNotFound, out == nil && (op == "delete" || op == "rename"):
		a.setState(path, stAbsent)
	case out == nil:
		a.setState(path, stExists)
	case op == "write", out == nsmodel.ErrUnknown && op != "stat" && op != "read":
		a.setState(path, stMaybe)
	}
	switch {
	case op != "rename":
	case out == nil:
		a.setState(dst, stExists)
	case out == nsmodel.ErrUnknown:
		a.setState(dst, stMaybe)
	}
}

func (a *agent) setState(path string, s pathState) {
	prev, known := a.st[path]
	if known && prev == s {
		return
	}
	if known {
		lst := a.byst[prev]
		for i, q := range lst {
			if q == path {
				a.byst[prev] = append(lst[:i], lst[i+1:]...)
				break
			}
		}
	}
	a.st[path] = s
	a.byst[s] = append(a.byst[s], path)
}

// pick returns a random path in the given state ("" if none).
func (a *agent) pick(s pathState) string {
	lst := a.byst[s]
	if len(lst) == 0 {
		return ""
	}
	return lst[a.rng.Intn(len(lst))]
}

func (a *agent) create(p *sim.Proc) {
	path := fmt.Sprintf("%s/f%06d", a.dir, a.seq)
	a.seq++
	if a.seq%largeEvery == 0 {
		err := a.cl.WriteFile(p, path, largeSize)
		p.Flush()
		a.record("write", path, "", err)
		return
	}
	err := a.cl.Create(p, path, 200)
	p.Flush()
	a.record("create", path, "", err)
}

func (a *agent) remove(p *sim.Proc) {
	path := a.pick(stExists)
	if path == "" {
		path = a.pick(stMaybe)
	}
	if path == "" {
		a.create(p)
		return
	}
	err := a.cl.Delete(p, path, false)
	p.Flush()
	a.record("delete", path, "", err)
}

// probe stats or reads a path in the wanted state: a live file, or one
// the agent's answers say is gone.
func (a *agent) probe(p *sim.Proc, op string, want pathState) {
	path := a.pick(want)
	if path == "" && want == stExists {
		path = a.pick(stMaybe)
	}
	if path == "" {
		a.create(p)
		return
	}
	var err error
	if op == "read" {
		_, err = a.cl.ReadFile(p, path)
	} else {
		_, err = a.cl.Stat(p, path)
	}
	p.Flush()
	a.record(op, path, "", err)
}

func (a *agent) list(p *sim.Proc) {
	_, err := a.cl.List(p, a.dir)
	p.Flush()
	a.record("list", a.dir, "", err)
}

func (a *agent) rename(p *sim.Proc) {
	src := a.pick(stExists)
	if src == "" {
		a.create(p)
		return
	}
	dir := a.dir
	if a.xdir != "" && a.rng.Intn(2) == 1 {
		// Sharded deployments only: half the renames move into the second
		// directory, crossing the shard boundary to its pinned shard. The
		// extra RNG draw happens only when xdir is set, so unsharded
		// campaigns keep their byte-identical operation sequence.
		dir = a.xdir
	}
	dst := fmt.Sprintf("%s/r%06d", dir, a.seq)
	a.seq++
	err := a.cl.Rename(p, src, dst)
	p.Flush()
	a.record("rename", src, dst, err)
}
