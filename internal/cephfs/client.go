package cephfs

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

const (
	rpcReqSize  = 256
	rpcRespSize = 512
)

// Client is a CephFS kernel client. With the kernel cache enabled, inodes
// it holds capabilities for are served locally; the owning MDS revokes the
// capability (and the cache entry) when another client mutates the inode.
type Client struct {
	c    *Cluster
	Node *simnet.Node

	cache map[string]bool

	// Ops counts completed operations; CacheHits the ones served from the
	// kernel cache; LatencySum feeds average-latency reporting.
	Ops        int64
	CacheHits  int64
	LatencySum time.Duration
}

// NewClient registers a kernel client in the given zone.
func (c *Cluster) NewClient(zone simnet.ZoneID, host simnet.HostID) *Client {
	cl := &Client{
		c:     c,
		Node:  c.net.NewNode("ceph-client", zone, host),
		cache: make(map[string]bool),
	}
	c.clients = append(c.clients, cl)
	return cl
}

// cached serves a read from the kernel cache if the capability is valid.
func (cl *Client) cached(p *sim.Proc, key string) bool {
	if !cl.c.cfg.KernelCache || !cl.cache[key] {
		return false
	}
	p.Sleep(costClientCacheHit)
	cl.Ops++
	cl.CacheHits++
	cl.LatencySum += costClientCacheHit
	return true
}

// mutKind distinguishes mutations that change directory contents (create,
// delete, rename — these revoke the parent's listing capabilities) from
// attribute-only updates (chmod/chown — these revoke only the inode's own
// caps).
type mutKind int

const (
	readOnly mutKind = iota
	attrMutation
	namespaceMutation
)

// mdsOp runs one request on the subtree's MDS under its global lock.
func (cl *Client) mdsOp(p *sim.Proc, comps []string, kind mutKind, cacheKey string, apply func() error) error {
	start := p.Now()
	m := cl.c.owner(comps)
	if m == nil {
		return ErrDown
	}
	if !cl.c.net.TravelDeferred(p, cl.Node, m.Node, rpcReqSize, 5*time.Second) {
		p.Flush()
		return ErrDown
	}
	m.cpu.Acquire(p, 1)
	p.Sleep(costMDSOp + time.Duration(len(comps))*costPerComponent)
	if !cl.c.cfg.KernelCache {
		// SkipKCache churn: the kernel client immediately drops the
		// capabilities it is granted, so every operation additionally
		// costs the MDS a grant/release round of cap processing.
		p.Sleep(costMDSOp)
	}
	err := apply()
	m.Requests++
	m.loadWindow++
	if err == nil && kind != readOnly {
		m.journalBytes += journalEntryBytes
		cl.revokeCaps(p, m, comps, kind == namespaceMutation)
	}
	if err == nil && kind == readOnly && cacheKey != "" {
		// The MDS always issues and tracks capabilities for kernel
		// clients — even when the client skips its cache (the paper's
		// SkipKCache setup), the cap bookkeeping and later revocation
		// fan-out remain ("the MDSs have to keep track of all clients
		// capabilities", §V-A).
		p.Sleep(costCapIssue)
		holders := m.caps[cacheKey]
		if holders == nil {
			holders = make(map[*Client]bool)
			m.caps[cacheKey] = holders
		}
		holders[cl] = true
		if cl.c.cfg.KernelCache {
			cl.cache[cacheKey] = true
		}
	}
	m.cpu.Release(1)
	ok := cl.c.net.TravelDeferred(p, m.Node, cl.Node, rpcRespSize, 5*time.Second)
	p.Flush()
	if !ok {
		return ErrDown
	}
	cl.Ops++
	cl.LatencySum += p.Now() - start
	return err
}

// revokeCaps invalidates capabilities on the mutated path, its directory
// listing, and the parent's listing — the MDS pays per tracked client
// (the cost the paper notes leads to higher failover times and overhead).
func (cl *Client) revokeCaps(p *sim.Proc, m *MDS, comps []string, namespaceChange bool) {
	path := "/" + strings.Join(comps, "/")
	keys := []string{path}
	if namespaceChange {
		keys = append(keys, "L:"+path)
		if len(comps) > 0 {
			parent := "/" + strings.Join(comps[:len(comps)-1], "/")
			if len(comps) == 1 {
				parent = "/"
			}
			keys = append(keys, "L:"+parent)
		}
	}
	for _, key := range keys {
		// One cap-revoke message per holder, in client node order: ranging
		// the holder map here would reorder link queueing and latency draws
		// run to run.
		holders := make([]*Client, 0, len(m.caps[key]))
		for holder := range m.caps[key] {
			holders = append(holders, holder)
		}
		slices.SortFunc(holders, func(a, b *Client) int { return cmp.Compare(a.Node.ID(), b.Node.ID()) })
		for _, holder := range holders {
			p.Sleep(costCapRevokePerClient)
			cl.c.net.Send(m.Node, holder.Node, 64, nil)
			delete(holder.cache, key)
		}
		delete(m.caps, key)
	}
}

// Mkdir creates a directory.
func (cl *Client) Mkdir(p *sim.Proc, path string) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(comps) == 0 {
		return ErrExists
	}
	return cl.mdsOp(p, comps, namespaceMutation, "", func() error {
		parent, err := cl.c.lookup(comps[:len(comps)-1])
		if err != nil {
			return err
		}
		if !parent.dir {
			return ErrNotDir
		}
		name := comps[len(comps)-1]
		if _, ok := parent.children[name]; ok {
			return ErrExists
		}
		parent.children[name] = &cnode{name: name, dir: true, perm: 0o755, children: make(map[string]*cnode)}
		return nil
	})
}

// Create creates a file.
func (cl *Client) Create(p *sim.Proc, path string, size int64) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(comps) == 0 {
		return ErrExists
	}
	return cl.mdsOp(p, comps, namespaceMutation, "", func() error {
		parent, err := cl.c.lookup(comps[:len(comps)-1])
		if err != nil {
			return err
		}
		if !parent.dir {
			return ErrNotDir
		}
		name := comps[len(comps)-1]
		if _, ok := parent.children[name]; ok {
			return ErrExists
		}
		parent.children[name] = &cnode{name: name, size: size, perm: 0o644}
		return nil
	})
}

// Stat reads an entry's metadata (cacheable).
func (cl *Client) Stat(p *sim.Proc, path string) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	if cl.cached(p, path) {
		return nil
	}
	return cl.mdsOp(p, comps, readOnly, path, func() error {
		_, err := cl.c.lookup(comps)
		return err
	})
}

// Read opens a file for reading (cacheable metadata + capability).
func (cl *Client) Read(p *sim.Proc, path string) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	if cl.cached(p, path) {
		return nil
	}
	return cl.mdsOp(p, comps, readOnly, path, func() error {
		n, err := cl.c.lookup(comps)
		if err != nil {
			return err
		}
		if n.dir {
			return ErrIsDir
		}
		return nil
	})
}

// List returns a directory's entries (cacheable as a whole).
func (cl *Client) List(p *sim.Proc, path string) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	key := "L:" + path
	if cl.cached(p, key) {
		return nil
	}
	return cl.mdsOp(p, comps, readOnly, key, func() error {
		n, err := cl.c.lookup(comps)
		if err != nil {
			return err
		}
		if !n.dir {
			return ErrNotDir
		}
		return nil
	})
}

// Delete removes a file or (recursively if allowed) a directory.
func (cl *Client) Delete(p *sim.Proc, path string, recursive bool) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(comps) == 0 {
		return ErrInvalid
	}
	return cl.mdsOp(p, comps, namespaceMutation, "", func() error {
		parent, err := cl.c.lookup(comps[:len(comps)-1])
		if err != nil {
			return err
		}
		name := comps[len(comps)-1]
		n, ok := parent.children[name]
		if !ok {
			return ErrNotFound
		}
		if n.dir && len(n.children) > 0 && !recursive {
			return ErrNotEmpty
		}
		delete(parent.children, name)
		return nil
	})
}

// Rename moves src to dst. When the two paths are owned by different MDSs,
// both are involved (the export/import path in real CephFS); the extra
// coordination is charged to the destination MDS.
func (cl *Client) Rename(p *sim.Proc, src, dst string) error {
	srcComps, err := splitPath(src)
	if err != nil {
		return err
	}
	dstComps, err := splitPath(dst)
	if err != nil {
		return err
	}
	if len(srcComps) == 0 || len(dstComps) == 0 {
		return ErrInvalid
	}
	srcMDS := cl.c.owner(srcComps)
	return cl.mdsOp(p, dstComps, namespaceMutation, "", func() error {
		dstOwner := cl.c.owner(dstComps)
		if srcMDS != nil && dstOwner != nil && srcMDS != dstOwner {
			// Cross-MDS rename: the destination MDS coordinates with the
			// source subtree's MDS.
			p.Sleep(costMDSOp)
			cl.c.net.Send(dstOwner.Node, srcMDS.Node, rpcReqSize, nil)
		}
		srcParent, err := cl.c.lookup(srcComps[:len(srcComps)-1])
		if err != nil {
			return err
		}
		srcName := srcComps[len(srcComps)-1]
		n, ok := srcParent.children[srcName]
		if !ok {
			return ErrNotFound
		}
		dstParent, err := cl.c.lookup(dstComps[:len(dstComps)-1])
		if err != nil {
			return err
		}
		if !dstParent.dir {
			return ErrNotDir
		}
		dstName := dstComps[len(dstComps)-1]
		if _, ok := dstParent.children[dstName]; ok {
			return ErrExists
		}
		// Cycle guard: walking from n must not reach dstParent.
		if n.dir && subtreeContains(n, dstParent) {
			return ErrInvalid
		}
		delete(srcParent.children, srcName)
		n.name = dstName
		dstParent.children[dstName] = n
		return nil
	})
}

// SetPermission updates an entry's mode bits (an attribute mutation: the
// inode's caps are revoked, directory listings stay valid).
func (cl *Client) SetPermission(p *sim.Proc, path string, perm uint16) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(comps) == 0 {
		return ErrInvalid
	}
	return cl.mdsOp(p, comps, attrMutation, "", func() error {
		n, err := cl.c.lookup(comps)
		if err != nil {
			return err
		}
		n.perm = perm
		return nil
	})
}

func subtreeContains(root, target *cnode) bool {
	if root == target {
		return true
	}
	for _, child := range root.children {
		if child.dir && subtreeContains(child, target) {
			return true
		}
	}
	return false
}
