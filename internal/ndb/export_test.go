package ndb

// Accessors only this package's tests read.

// Coordinator returns the datanode coordinating this transaction.
func (t *Txn) Coordinator() *DataNode { return t.tc }

// DeclareDeadForTest declares dn dead at once, as a test that kills a node
// directly needs.
func (c *Cluster) DeclareDeadForTest(dn *DataNode) { c.declareDead(dn) }

// Shutdown reports whether the node shut itself down after losing
// arbitration.
func (dn *DataNode) Shutdown() bool { return dn.shutdown }
