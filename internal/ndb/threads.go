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

// The calibrated CPU service demands of the engine: the model's stand-in
// for the instruction footprints of real NDB code paths (DESIGN.md §2). Only
// ratios matter for the reproduced shapes.
const (
	// costRecv/costSend are charged per message arriving at / leaving a
	// datanode.
	costRecv = 10 * time.Microsecond
	costSend = 6 * time.Microsecond
	// costTCBegin is charged on the coordinator when a transaction starts.
	costTCBegin = 3 * time.Microsecond
	// costTCOp is charged on the coordinator per routed operation.
	costTCOp = 7 * time.Microsecond
	// costTCCommitRow is charged on the coordinator per row in the commit.
	costTCCommitRow = 4 * time.Microsecond
	// costLDMRead/costLDMWrite are charged on the owning LDM per row access.
	costLDMRead  = 9 * time.Microsecond
	costLDMWrite = 12 * time.Microsecond
	// costLDMPrepare/costLDMCommit are charged per replica per commit phase.
	costLDMPrepare = 5 * time.Microsecond
	costLDMCommit  = 3 * time.Microsecond
)

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
		floor := dn.c.cfg.BatchFloor
		scale := floor + (1-floor)*float64(d)/float64(d+backlog)
		d = time.Duration(float64(d) * scale)
	}
	return d
}

// recv charges the receive cost for an inbound message on dn.
func (dn *DataNode) recv(p *sim.Proc) {
	dn.c.Stats.RecvJobs++
	dn.use(p, RECV, costRecv)
}

// signalArrived charges RECV for a fire-and-forget signal at the instant it
// arrives; no process waits on it.
func (dn *DataNode) signalArrived() {
	dn.c.Stats.RecvJobs++
	dn.threads[RECV].Charge(dn.batched(RECV, costRecv))
}

// send charges the cost of an outbound message. SEND work overflows to the
// REP helper thread when the SEND pool is backlogged — NDB's idle threads
// assist busy ones (§V-D1), which is what drives the high REP utilization
// in Figure 11 — and still counts as a SEND job.
func (dn *DataNode) send(p *sim.Proc) {
	dn.c.Stats.SendJobs++
	pool := SEND
	if dn.threads[SEND].Backlog() > 0 && dn.threads[REP].Backlog() == 0 {
		pool = REP
	}
	dn.use(p, pool, costSend)
}
