package simnet

// Accessors only this package's tests read.

// Degraded reports whether the path between two zones is impaired.
func (n *Network) Degraded(a, b ZoneID) bool { return n.degraded[zonePair(a, b)] != nil }
