package namenode

import (
	"errors"
	"time"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/nsmodel"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
)

// Wire sizes for client-NN RPCs.
const (
	rpcReqSize  = 256
	rpcRespSize = 512
)

// Client is a HopsFS-CL file system client. Per §II-A2 and §IV-B3: a client
// fetches the active metadata-server list from the leader, prefers a server
// with its own locationDomainId (falling back to a random one), sticks with
// it until it fails, and then selects a random surviving server. The random
// draws are balanced (stick): each zone's clients spread evenly over the
// servers they may pick.
type Client struct {
	ns     *Namesystem
	Node   *simnet.Node
	Domain simnet.ZoneID

	nn *NameNode

	// epoch is the re-balance epoch the sticky choice was made under; when
	// the serving set changes (Commission / Drain) the namesystem bumps its
	// epoch and every client re-picks lazily at its next operation.
	epoch int

	// span is the reusable root-span buffer for aggregate-mode tracing:
	// a client runs one operation at a time, so StartOpInto can overwrite
	// it per call instead of allocating.
	span trace.Span

	// history, when set, records each operation's invoke and return; open
	// is the index of the operation in flight in it.
	history *nsmodel.History
	open    int
}

// NewClient registers a client in the given zone. domain is its
// locationDomainId (ZoneUnset disables the AZ-local preference).
func (ns *Namesystem) NewClient(zone simnet.ZoneID, host simnet.HostID, domain simnet.ZoneID) *Client {
	return &Client{
		ns:     ns,
		Node:   ns.net.NewNode("client", zone, host),
		Domain: domain,
	}
}

// Record has the client record every operation it runs into h, from its
// next one on; nil stops the recording.
func (cl *Client) Record(h *nsmodel.History) { cl.history = h }

// outcomeClasses maps the client's errors onto the oracle's classes.
var outcomeClasses = []struct{ err, model error }{
	{ErrNotFound, nsmodel.ErrNotFound},
	{ErrExists, nsmodel.ErrExists},
	{ErrNotDir, nsmodel.ErrNotDir},
	{ErrNotEmpty, nsmodel.ErrNotEmpty},
	{ErrCycle, nsmodel.ErrCycle},
	{ErrIsDir, nsmodel.ErrIsDir},
	{ErrNoNameNodes, nsmodel.ErrNotApplied},
	// runTxn answers it only when no attempt reached its commit point: an
	// attempt that did answers ndb.ErrIndeterminate, which is not retried.
	{ErrRetriesExhausted, nsmodel.ErrNotApplied},
}

// Outcome maps an operation a client recorded onto the oracle's terms, as
// nsmodel.Check takes them: an error onto its class — ErrNoNameNodes and
// ErrRetriesExhausted onto nsmodel.ErrNotApplied, and one the oracle has no
// class for, a lost reply's among them, onto nsmodel.ErrUnknown — and a
// result onto the entries it holds.
func Outcome(op nsmodel.Op) nsmodel.Outcome {
	var out nsmodel.Outcome
	if op.Err != nil {
		out.Err = nsmodel.ErrUnknown
		for _, c := range outcomeClasses {
			if errors.Is(op.Err, c.err) {
				out.Err = c.model
				break
			}
		}
		return out
	}
	switch r := op.Result.(type) {
	case *Inode:
		out.Entry = r.entry()
	case Listing:
		out.List = entries(r)
	}
	return out
}

// entries is a listing as the oracle reads it, in place.
type entries Listing

func (l entries) Len() int               { return len(l.kvs) }
func (l entries) At(i int) nsmodel.Entry { return Listing(l).At(i).entry() }

// entry is the inode as the oracle sees it.
func (ino *Inode) entry() nsmodel.Entry {
	return nsmodel.Entry{ID: ino.ID, Name: ino.Name, Dir: ino.Dir, Size: ino.Size}
}

// pick selects (or keeps) the client's metadata server, drawing a new one
// among those serving other than lost, whose leg was just lost, if any.
func (cl *Client) pick(p *sim.Proc, lost *NameNode) (*NameNode, error) {
	if cl.nn != nil && cl.nn.Serving() && cl.epoch == cl.ns.balanceEpoch {
		return cl.nn, nil
	}
	cl.epoch = cl.ns.balanceEpoch
	leader := cl.ns.ElectedLeader()
	if leader == nil {
		return nil, ErrNoNameNodes
	}
	// Fetch the active-NN list from the leader. Serving it is an in-memory
	// read of the cached election view, so it is billed per entry rather
	// than as a full metadata operation: when a Commission or Drain bumps
	// the balance epoch, every client re-picks at its next call, and at
	// full-op cost that stampede would queue behind real work on the
	// leader's cores and show up as a latency spike the autoscaler then
	// chases.
	if !cl.travel(p, cl.Node, leader.Node, rpcReqSize) {
		return nil, ErrNoNameNodes
	}
	active := leader.ActiveNameNodes()
	leader.chargeList(p, len(active))
	if !cl.travel(p, leader.Node, cl.Node, rpcRespSize+16*len(active)) {
		return nil, ErrNoNameNodes
	}
	if len(active) == 0 {
		// Elections have not completed a round yet; the leader answers
		// with the statically configured server set.
		for _, nn := range cl.ns.nns {
			active = append(active, ActiveNN{ID: nn.ID, Domain: nn.Domain})
		}
	}
	var local, all []*NameNode
	for _, a := range active {
		if a.ID < 1 || a.ID > len(cl.ns.nns) {
			continue
		}
		nn := cl.ns.nns[a.ID-1]
		if !nn.Serving() || nn == lost {
			continue
		}
		all = append(all, nn)
		if cl.Domain != simnet.ZoneUnset && a.Domain == cl.Domain {
			local = append(local, nn)
		}
	}
	pool := local
	if len(pool) == 0 {
		pool = all
	}
	if len(pool) == 0 {
		// Every server in the leader's (possibly stale) view is dead:
		// fall back to the statically configured set, like a real client
		// falling back to its configured namenode list.
		for _, nn := range cl.ns.nns {
			if nn.Serving() && nn != lost {
				pool = append(pool, nn)
			}
		}
	}
	if len(pool) == 0 && lost != nil && lost.Serving() {
		pool = append(pool, lost)
	}
	if len(pool) == 0 {
		return nil, ErrNoNameNodes
	}
	cl.stick(p, pool)
	return cl.nn, nil
}

// stickKey names the clients of one zone sticking to one server.
type stickKey struct {
	zone simnet.ZoneID
	nn   int
}

// stick moves the client onto a server drawn at random among the pool's
// members serving the fewest clients of its zone: the random pick, drawn
// without replacement, so every server carries each zone's clients in equal
// shares. Independent draws left to the seed how many unaware clients share
// their server's zone, and with a client's whole path in one partition
// (DESIGN §13) that moved an unaware deployment's throughput by about a
// percent from seed to seed.
func (cl *Client) stick(p *sim.Proc, pool []*NameNode) {
	on, z := cl.ns.clientsOn, cl.Node.Zone()
	cl.leave()
	least, n := 0, 0
	for _, nn := range pool {
		switch c := on[stickKey{z, nn.ID}]; {
		case n == 0 || c < least:
			least, n = c, 1
		case c == least:
			n++
		}
	}
	k := p.Rand().Intn(n)
	for _, nn := range pool {
		if on[stickKey{z, nn.ID}] == least {
			if k--; k < 0 {
				cl.nn = nn
				break
			}
		}
	}
	on[stickKey{z, cl.nn.ID}]++
}

// leave drops the client's sticky server.
func (cl *Client) leave() {
	if cl.nn != nil {
		cl.ns.clientsOn[stickKey{cl.Node.Zone(), cl.nn.ID}]--
		cl.nn = nil
	}
}

func (cl *Client) travel(p *sim.Proc, from, to *simnet.Node, size int) bool {
	return cl.ns.net.TravelDeferred(p, from, to, size, 2*time.Second)
}

// do is the one entry for a metadata RPC: it runs fn against the client's
// server, switching to a surviving server when the current one fails
// mid-call. op is the operation as invoked: its name for the trace layer
// ("stat", "mkdir", ...) — each call emits exactly one root span under that
// name — and its arguments, which an attached history records with the
// invoke and return instants. reqExtra and the handler's first result are
// the payload bytes riding the request and the response (file data inline
// with the metadata, §II-A3).
func (cl *Client) do(p *sim.Proc, op nsmodel.Op, reqExtra int, fn func(nn *NameNode) (respExtra int, err error)) error {
	if cl.history != nil {
		op.Client, op.Invoke = int(cl.Node.ID()), p.EffNow()
		cl.open = cl.history.Invoke(op)
	}
	sp := cl.ns.tracer.StartOpInto(&cl.span, op.Name, p.EffNow())
	var prev *trace.Span
	if sp != nil {
		prev = p.SetSpan(sp)
	}
	err := cl.rpc(p, op.Name, reqExtra, fn)
	if cl.history != nil {
		cl.history.Return(cl.open, p.EffNow(), err)
	}
	if sp != nil {
		p.SetSpan(prev)
		if err != nil {
			sp.SetError()
			if IsOutcomeError(err) {
				sp.SetBenign()
			}
		}
		sp.Finish(p.EffNow())
	}
	return err
}

// rpc is do's retry loop: pick a server, travel there, run the handler,
// travel back; a lost leg drops the sticky server and tries another — but
// the handler of a mutation (an Atomic row of nsmodel.Promises) whose reply
// is lost has run, and may have applied, so it answers ErrReplyLost.
func (cl *Client) rpc(p *sim.Proc, name string, reqExtra int, fn func(nn *NameNode) (int, error)) error {
	var lost *NameNode
	for attempt := 0; attempt < 4; attempt++ {
		nn, err := cl.pick(p, lost)
		if err != nil {
			return err
		}
		if !cl.travel(p, cl.Node, nn.Node, rpcReqSize+reqExtra) {
			cl.leave()
			lost = nn
			continue
		}
		nn.inflight++
		respExtra, err := fn(nn)
		nn.inflight--
		if !cl.travel(p, nn.Node, cl.Node, rpcRespSize+respExtra) {
			cl.leave()
			if promise, _ := nsmodel.PromiseOf(name); promise.Effect == nsmodel.Atomic {
				return ErrReplyLost
			}
			lost = nn
			continue
		}
		// Synchronize with the clock so the caller's end-to-end latency
		// includes every deferred hop and service time.
		p.Flush()
		return err
	}
	return ErrNoNameNodes
}

// call is do for operations that return a value: the handler's value is
// kept when it succeeds, whatever then happens to the response leg, and is
// the result an attached history records.
func call[T any](cl *Client, p *sim.Proc, op nsmodel.Op, reqExtra int, fn func(nn *NameNode) (T, int, error)) (T, error) {
	var out T
	err := cl.do(p, op, reqExtra, func(nn *NameNode) (int, error) {
		got, respExtra, err := fn(nn)
		if err == nil {
			out = got
		}
		return respExtra, err
	})
	if err == nil && cl.history != nil {
		cl.history.Ops[cl.open].Result = out
	}
	return out, err
}

// Exists reports whether a path resolves.
func (cl *Client) Exists(p *sim.Proc, path string) (bool, error) {
	_, err := cl.Stat(p, path)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Du returns the content summary of a subtree: file count, directory
// count, and total logical bytes (the HDFS getContentSummary operation,
// implemented as recursive partition-pruned scans in one transaction).
func (cl *Client) Du(p *sim.Proc, path string) (files, dirs int, bytes int64, err error) {
	err = cl.do(p, nsmodel.Op{Name: "contentSummary", Path: path}, 0, func(nn *NameNode) (int, error) {
		var ierr error
		files, dirs, bytes, ierr = nn.ContentSummary(p, path)
		return 0, ierr
	})
	return files, dirs, bytes, err
}

// Mkdir creates a directory.
func (cl *Client) Mkdir(p *sim.Proc, path string) error {
	_, err := call(cl, p, nsmodel.Op{Name: "mkdir", Path: path}, 0, func(nn *NameNode) (*Inode, int, error) {
		got, err := nn.Mkdir(p, path, 0o755)
		return got, 0, err
	})
	return err
}

// MkdirAll creates a directory and any missing ancestors.
func (cl *Client) MkdirAll(p *sim.Proc, path string) error {
	fp, err := splitPath(path)
	if err != nil {
		return err
	}
	for i := 1; i <= fp.depth(); i++ {
		if err := cl.Mkdir(p, fp.prefix(i)); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	return nil
}

// Create creates an empty or small file (metadata-only operation).
func (cl *Client) Create(p *sim.Proc, path string, size int64) error {
	_, err := cl.create(p, path, size)
	return err
}

// create is Create, returning the inode it made.
func (cl *Client) create(p *sim.Proc, path string, size int64) (*Inode, error) {
	return call(cl, p, nsmodel.Op{Name: "create", Path: path, Size: size}, int(size), func(nn *NameNode) (*Inode, int, error) {
		got, err := nn.Create(p, path, size)
		return got, 0, err
	})
}

// WriteFile creates a file of the given size: small files travel inline to
// NDB with the metadata; large files are split into blocks and streamed
// through the block layer pipeline, then attached to the inode.
func (cl *Client) WriteFile(p *sim.Proc, path string, size int64) error {
	if size <= smallFileThreshold || cl.ns.blockMgr == nil {
		return cl.Create(p, path, size)
	}
	ino, err := cl.create(p, path, 0)
	if err != nil {
		return err
	}
	mgr := cl.ns.blockMgr
	ids := make([]blocks.BlockID, 0, mgr.SplitSize(size))
	remaining := size
	for remaining > 0 {
		sz := min(remaining, mgr.BlockSize())
		b, err := mgr.WriteBlock(p, cl.Node, 0, sz)
		if err != nil {
			return err
		}
		ids = append(ids, b.ID)
		remaining -= sz
	}
	err = cl.do(p, nsmodel.Op{Name: "attachBlocks", Path: path, ID: ino.ID, Size: size}, 0, func(nn *NameNode) (int, error) {
		return 0, nn.AttachBlocks(p, path, ino.ID, ids, size)
	})
	if err != nil && !errors.Is(err, ErrNoNameNodes) && !errors.Is(err, ErrRetriesExhausted) &&
		!errors.Is(err, ndb.ErrIndeterminate) {
		// The attach definitively failed (a namespace error, not a lost
		// response), so the streamed blocks can never be referenced:
		// release them now instead of waiting for orphan reclamation. An
		// indeterminate attach is a lost response: its primary may have
		// applied it, so its blocks stay for orphan reclamation to judge.
		for _, id := range ids {
			mgr.DeleteBlock(id)
		}
	}
	return err
}

// ReadFile reads a file: the metadata operation plus inline data or block
// streaming, preferring AZ-local block replicas. Inline small-file bytes
// ride the metadata response from the NN (§II-A3), so they are charged on
// that leg of the wire.
func (cl *Client) ReadFile(p *sim.Proc, path string) (*Inode, error) {
	ino, err := call(cl, p, nsmodel.Op{Name: "read", Path: path}, 0, func(nn *NameNode) (*Inode, int, error) {
		got, err := nn.GetBlockLocations(p, path)
		if err != nil {
			return nil, 0, err
		}
		return got, int(got.InlineSize), nil
	})
	if err != nil {
		return nil, err
	}
	if cl.ns.blockMgr != nil {
		for _, id := range ino.Blocks {
			if _, err := cl.ns.blockMgr.ReadBlock(p, cl.Node, id); err != nil {
				return nil, err
			}
		}
	}
	return ino, nil
}

// Stat returns metadata for a path.
func (cl *Client) Stat(p *sim.Proc, path string) (*Inode, error) {
	return call(cl, p, nsmodel.Op{Name: "stat", Path: path}, 0, func(nn *NameNode) (*Inode, int, error) {
		got, err := nn.Stat(p, path)
		return got, 0, err
	})
}

// List returns a directory's children.
func (cl *Client) List(p *sim.Proc, path string) (Listing, error) {
	return call(cl, p, nsmodel.Op{Name: "list", Path: path}, 0, func(nn *NameNode) (Listing, int, error) {
		got, err := nn.List(p, path)
		return got, 0, err
	})
}

// Delete removes a path, reclaiming block replicas after the metadata
// transaction commits. Reclamation happens on the server side of the RPC
// (in HopsFS the NN queues invalidations as part of the delete), so a lost
// response cannot leave the replicas orphaned.
func (cl *Client) Delete(p *sim.Proc, path string, recursive bool) error {
	return cl.do(p, nsmodel.Op{Name: "delete", Path: path, Recursive: recursive}, 0, func(nn *NameNode) (int, error) {
		freed, err := nn.Delete(p, path, recursive)
		if err != nil {
			return 0, err
		}
		if cl.ns.blockMgr != nil {
			for _, id := range freed {
				cl.ns.blockMgr.DeleteBlock(id)
			}
		}
		return 0, nil
	})
}

// Rename atomically moves src to dst.
func (cl *Client) Rename(p *sim.Proc, src, dst string) error {
	return cl.do(p, nsmodel.Op{Name: "rename", Path: src, Dst: dst}, 0, func(nn *NameNode) (int, error) { return 0, nn.Rename(p, src, dst) })
}

// SetPermission updates mode bits.
func (cl *Client) SetPermission(p *sim.Proc, path string, perm uint16) error {
	return cl.do(p, nsmodel.Op{Name: "setPermission", Path: path}, 0, func(nn *NameNode) (int, error) { return 0, nn.SetPermission(p, path, perm) })
}

// SetOwner updates ownership.
func (cl *Client) SetOwner(p *sim.Proc, path, owner string) error {
	return cl.do(p, nsmodel.Op{Name: "setOwner", Path: path}, 0, func(nn *NameNode) (int, error) { return 0, nn.SetOwner(p, path, owner) })
}

// SetQuota sets (or clears, with both limits zero) a directory's namespace
// and storage-space quota.
func (cl *Client) SetQuota(p *sim.Proc, path string, nsQuota, ssQuota int64) error {
	return cl.do(p, nsmodel.Op{Name: "setQuota", Path: path}, 0, func(nn *NameNode) (int, error) { return 0, nn.SetQuota(p, path, nsQuota, ssQuota) })
}

// Quota returns a directory's quota limits and accumulated usage.
func (cl *Client) Quota(p *sim.Proc, path string) (QuotaInfo, error) {
	return call(cl, p, nsmodel.Op{Name: "quota", Path: path}, 0, func(nn *NameNode) (QuotaInfo, int, error) {
		got, err := nn.Quota(p, path)
		return got, 0, err
	})
}
