package namenode

// Accessors only this package's tests read.

// Decommissioned reports whether the server has left the cluster.
func (nn *NameNode) Decommissioned() bool { return nn.decom }

// BalanceEpoch returns the client re-balance epoch, bumped by Commission and
// Drain.
func (ns *Namesystem) BalanceEpoch() int { return ns.balanceEpoch }

// CurrentNameNode returns the server the client is stuck to (nil before the
// first operation).
func (cl *Client) CurrentNameNode() *NameNode { return cl.nn }
