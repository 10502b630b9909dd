package ndb

import (
	"time"

	"hopsfscl/internal/sim"
)

// ThreadType enumerates the NDB thread classes of the paper's Table II.
type ThreadType int

// Thread classes, in Table II order.
const (
	LDM  ThreadType = iota // tables' data shards
	TC                     // ongoing transactions
	RECV                   // inbound network traffic
	SEND                   // outbound network traffic
	REP                    // replication across clusters (idle helper here)
	IO                     // I/O operations
	MAIN                   // schema management

	threadTypes = 7
)

// threadCounts is Table II: CPUs locked per thread type (27 total).
var threadCounts = [threadTypes]int{
	LDM:  12,
	TC:   7,
	RECV: 3,
	SEND: 2,
	REP:  1,
	IO:   1,
	MAIN: 1,
}

// String returns the Table II name of the thread type.
func (t ThreadType) String() string {
	switch t {
	case LDM:
		return "LDM"
	case TC:
		return "TC"
	case RECV:
		return "RECV"
	case SEND:
		return "SEND"
	case REP:
		return "REP"
	case IO:
		return "IO"
	case MAIN:
		return "MAIN"
	default:
		return "?"
	}
}

// Costs are the calibrated CPU service demands of the engine. They are the
// model's stand-in for the instruction footprints of real NDB code paths;
// see DESIGN.md §2. Only ratios matter for the reproduced shapes.
type Costs struct {
	// Recv/Send are charged per message arriving at / leaving a datanode.
	Recv time.Duration
	Send time.Duration
	// TCBegin is charged on the coordinator when a transaction starts.
	TCBegin time.Duration
	// TCOp is charged on the coordinator per routed operation.
	TCOp time.Duration
	// TCCommitRow is charged on the coordinator per row in the commit.
	TCCommitRow time.Duration
	// LDMRead/LDMWrite are charged on the owning LDM per row access.
	LDMRead  time.Duration
	LDMWrite time.Duration
	// LDMPrepare/LDMCommit are charged per replica per commit phase.
	LDMPrepare time.Duration
	LDMCommit  time.Duration
	// BatchWindow models NDB's executor batching: when a thread pool has
	// queued work, per-item cost shrinks asymptotically toward BatchFloor
	// of the nominal cost (throughput keeps growing after CPU plateaus,
	// §V-D1).
	BatchFloor float64
}

// DefaultCosts returns the calibration used by the experiments.
func DefaultCosts() Costs {
	return Costs{
		Recv:        10 * time.Microsecond,
		Send:        6 * time.Microsecond,
		TCBegin:     3 * time.Microsecond,
		TCOp:        7 * time.Microsecond,
		TCCommitRow: 4 * time.Microsecond,
		LDMRead:     9 * time.Microsecond,
		LDMWrite:    12 * time.Microsecond,
		LDMPrepare:  5 * time.Microsecond,
		LDMCommit:   3 * time.Microsecond,
		BatchFloor:  0.30,
	}
}

// use charges d of CPU on the node's thread pool of the given type as
// fluid (deferred) service for p, scaled by the batching model.
func (dn *DataNode) use(p *sim.Proc, t ThreadType, d time.Duration) {
	dn.threads[t].UseDeferred(p, dn.batched(t, d))
}

// batched applies NDB's executor batching to d of work on the pool of type
// t: the deeper the backlog, the more of the fixed per-message overhead is
// amortized across the batch (§V-D1: throughput keeps growing after the
// CPU plateaus).
func (dn *DataNode) batched(t ThreadType, d time.Duration) time.Duration {
	if backlog := dn.threads[t].Backlog(); backlog > 0 {
		floor := dn.c.cfg.Costs.BatchFloor
		scale := floor + (1-floor)*float64(d)/float64(d+backlog)
		d = time.Duration(float64(d) * scale)
	}
	return d
}

// recv charges the receive cost for an inbound message on dn.
func (dn *DataNode) recv(p *sim.Proc) { dn.use(p, RECV, dn.c.cfg.Costs.Recv) }

// signalArrived charges RECV for a fire-and-forget signal at the instant it
// arrives; no process waits on it.
func (dn *DataNode) signalArrived() {
	dn.threads[RECV].Charge(dn.batched(RECV, dn.c.cfg.Costs.Recv))
}

// send charges the cost of an outbound message. SEND work overflows to the
// REP helper thread when the SEND pool is backlogged — NDB's idle threads
// assist busy ones (§V-D1), which is what drives the high REP utilization
// in Figure 11.
func (dn *DataNode) send(p *sim.Proc) {
	cost := dn.c.cfg.Costs.Send
	if dn.threads[SEND].Backlog() > 0 && dn.threads[REP].Backlog() == 0 {
		dn.use(p, REP, cost)
		return
	}
	dn.use(p, SEND, cost)
}
