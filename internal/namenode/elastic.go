package namenode

import (
	"fmt"

	"hopsfscl/internal/simnet"
)

// Elastic namenode lifecycle. The metadata serving tier is stateless
// (§II-A2), which is exactly what makes scaling it cheap — CFS and λFS
// build on the same property. A server's life is:
//
//	commission -> serving -> draining -> decommissioned
//
// Commissioning registers a fresh NN on a live deployment: its election
// process starts immediately, and bumping the client re-balance epoch makes
// every client re-pick a server at its next operation, so the newcomer
// receives load without waiting for failures. Draining is the graceful
// exit: the server stops accepting new operations (clients re-balance the
// same way) but finishes the ones in flight; once drained it is
// decommissioned and leaves the cluster for good. Only failures (Fail /
// Recover) are reversible — decommissioning is not, matching a released
// cloud VM.

// Commission registers and starts a new metadata server on a live
// deployment, like AddNameNode, and additionally bumps the client
// re-balance epoch so existing clients spread over the grown server set.
func (ns *Namesystem) Commission(zone simnet.ZoneID, host simnet.HostID, domain simnet.ZoneID) *NameNode {
	nn := ns.AddNameNode(zone, host, domain)
	ns.balanceEpoch++
	return nn
}

// Serving reports whether the server accepts new operations: alive and not
// draining.
func (nn *NameNode) Serving() bool { return nn.Alive() && !nn.draining }

// Draining reports whether the server is between Drain and Decommission.
func (nn *NameNode) Draining() bool { return nn.draining && !nn.decom }

// Decommissioned reports whether the server has left the cluster.
func (nn *NameNode) Decommissioned() bool { return nn.decom }

// InFlight returns the number of operations currently executing on the
// server.
func (nn *NameNode) InFlight() int { return nn.inflight }

// Drain marks the server as leaving: it accepts no new operations (clients
// re-balance at their next call; its election heartbeat stops so peers drop
// it from the active list) but keeps serving the operations already in
// flight. Complete the exit with Decommission once InFlight reaches zero.
func (nn *NameNode) Drain() {
	if nn.draining || nn.decom {
		return
	}
	nn.draining = true
	nn.ns.balanceEpoch++
}

// Decommission completes a drain: the server leaves the network and the
// health model's expected set. It refuses to cut off in-flight operations —
// callers wait for InFlight to reach zero first (the deployment's
// FinishDrains polls exactly that).
func (nn *NameNode) Decommission() error {
	if nn.decom {
		return nil
	}
	if !nn.draining {
		return fmt.Errorf("namenode: decommission %s: not draining", nn.Node.Name())
	}
	if nn.inflight > 0 {
		return fmt.Errorf("namenode: decommission %s: %d operations in flight", nn.Node.Name(), nn.inflight)
	}
	nn.decom = true
	nn.stopped = true
	if nn.Node.Alive() {
		nn.Node.Fail()
	}
	return nil
}

// ServingCount returns how many servers currently accept new operations.
func (ns *Namesystem) ServingCount() int { return len(ns.ServingNameNodes()) }

// ServingNameNodes returns the servers currently accepting new operations,
// in id order.
func (ns *Namesystem) ServingNameNodes() []*NameNode {
	var out []*NameNode
	for _, nn := range ns.nns {
		if nn.Serving() {
			out = append(out, nn)
		}
	}
	return out
}

// BalanceEpoch returns the client re-balance epoch (bumped by Commission
// and Drain; exposed for tests).
func (ns *Namesystem) BalanceEpoch() int { return ns.balanceEpoch }
