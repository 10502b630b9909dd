// Package chaos is a deterministic fault-campaign engine for the simulated
// HopsFS-CL deployment. It generalizes the paper's §V-F failure drills
// (AZ loss, split brain, NN loss) into systematic, seeded fault
// exploration in the style of Jepsen and deterministic-simulation testing:
//
//   - a fault scheduler executes declarative schedules — {at, kind,
//     target} steps for node crash/rejoin, zone failure/recovery, zone
//     partition/heal, NN kill/restart, and slow-link / lossy-link
//     degradation — and a seeded generator derives safe-by-construction
//     random campaigns so `go test` can sweep many seeds reproducibly;
//   - a cross-layer invariant auditor quiesces the workload at
//     checkpoints and verifies NDB group liveness, durable-epoch
//     monotonicity, the §IV-C one-replica-per-AZ block guarantee,
//     namespace/block-layer agreement, lock hygiene, and leader
//     uniqueness;
//   - an operation-history checker records every client operation on
//     virtual time, verifies the observed results against a sequential
//     namespace model (acked writes are never lost, reads never return
//     dropped data), and reports MTTR, unavailability windows, and
//     failed-operation counts.
//
// Everything runs on virtual time inside internal/sim: the same seed
// always produces byte-identical reports.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"hopsfscl/internal/simnet"
)

// FaultKind names one fault-injection (or recovery) action.
type FaultKind string

// The fault vocabulary. Every degrading kind has a restoring counterpart;
// generated campaigns always schedule the pair.
const (
	// FaultCrashDN crashes one NDB datanode (target: datanode index).
	FaultCrashDN FaultKind = "crash-dn"
	// FaultRejoinDN rejoins a crashed NDB datanode: it resyncs its node
	// group's partitions from the surviving primaries.
	FaultRejoinDN FaultKind = "rejoin-dn"
	// FaultFailZone fails a whole availability zone: its NDB datanodes,
	// metadata servers, and block datanodes all go down.
	FaultFailZone FaultKind = "fail-zone"
	// FaultRecoverZone brings a failed zone back.
	FaultRecoverZone FaultKind = "recover-zone"
	// FaultPartition severs the network between two zones (and opens a
	// fresh arbitration epoch, as a real membership change would).
	FaultPartition FaultKind = "partition"
	// FaultHeal restores the network between two zones.
	FaultHeal FaultKind = "heal"
	// FaultKillNN kills one metadata server (target: 1-based NN id).
	FaultKillNN FaultKind = "kill-nn"
	// FaultRestartNN restarts a killed metadata server.
	FaultRestartNN FaultKind = "restart-nn"
	// FaultSlowLink multiplies the latency between two zones.
	FaultSlowLink FaultKind = "slow-link"
	// FaultLossyLink drops messages between two zones with a probability.
	FaultLossyLink FaultKind = "lossy-link"
	// FaultRestoreLink removes any degradation between two zones.
	FaultRestoreLink FaultKind = "restore-link"
)

// Degrades reports whether the kind injects a fault rather than repairs
// one; reporting harnesses use it to count a schedule's degrading steps.
func (k FaultKind) Degrades() bool { return k.degrades() }

// degrades reports whether the kind injects a fault (true) or recovers
// from one (false). Only degrading steps start an MTTR clock.
func (k FaultKind) degrades() bool {
	switch k {
	case FaultRejoinDN, FaultRecoverZone, FaultHeal, FaultRestartNN, FaultRestoreLink:
		return false
	}
	return true
}

// Step is one scheduled action of a campaign.
type Step struct {
	At   time.Duration
	Kind FaultKind

	// Zone is the target zone (fail-zone, recover-zone) or the first zone
	// of a pair (partition, heal, slow-link, lossy-link, restore-link).
	Zone simnet.ZoneID
	// ZoneB is the second zone of a pair.
	ZoneB simnet.ZoneID
	// Node targets a node: the NDB datanode index for crash-dn/rejoin-dn,
	// the 1-based metadata-server id for kill-nn/restart-nn.
	Node int
	// Shard selects which NDB cluster crash-dn/rejoin-dn target in a
	// sharded deployment (0 for unsharded, and the default).
	Shard int
	// Factor is the slow-link latency multiplier.
	Factor float64
	// Loss is the lossy-link drop probability.
	Loss float64
}

// String renders the step in the schedule-file syntax (see ParseSchedule).
func (s Step) String() string {
	switch s.Kind {
	case FaultCrashDN, FaultRejoinDN:
		if s.Shard != 0 {
			return fmt.Sprintf("at %v %s %d %d", s.At, s.Kind, s.Node, s.Shard)
		}
		return fmt.Sprintf("at %v %s %d", s.At, s.Kind, s.Node)
	case FaultKillNN, FaultRestartNN:
		return fmt.Sprintf("at %v %s %d", s.At, s.Kind, s.Node)
	case FaultFailZone, FaultRecoverZone:
		return fmt.Sprintf("at %v %s %d", s.At, s.Kind, s.Zone)
	case FaultSlowLink:
		return fmt.Sprintf("at %v %s %d %d %g", s.At, s.Kind, s.Zone, s.ZoneB, s.Factor)
	case FaultLossyLink:
		return fmt.Sprintf("at %v %s %d %d %g", s.At, s.Kind, s.Zone, s.ZoneB, s.Loss)
	default: // partition, heal, restore-link
		return fmt.Sprintf("at %v %s %d %d", s.At, s.Kind, s.Zone, s.ZoneB)
	}
}

// Schedule is a campaign: steps executed in time order.
type Schedule []Step

// Sort orders the schedule by time (stable, so same-instant steps keep
// their declaration order).
func (s Schedule) Sort() {
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
}

// End returns the time of the last step.
func (s Schedule) End() time.Duration {
	var end time.Duration
	for _, st := range s {
		if st.At > end {
			end = st.At
		}
	}
	return end
}

// Render returns the schedule in the schedule-file syntax.
func (s Schedule) Render() string {
	var b strings.Builder
	for _, st := range s {
		b.WriteString(st.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// DetectionSchedule is the canonical three-class fault sequence used to
// exercise SLO detection: a datanode death, a zone partition, and a
// degraded cross-zone link, each followed by its recovery. The classes
// stress different detectors — node death surfaces through NDB liveness
// health, a partition through arbitration fallout and availability burn,
// a slow link through latency burn-rate alerts.
func DetectionSchedule() Schedule {
	return Schedule{
		{At: 3 * time.Second, Kind: FaultCrashDN, Node: 0},
		{At: 8 * time.Second, Kind: FaultRejoinDN, Node: 0},
		{At: 14 * time.Second, Kind: FaultPartition, Zone: 1, ZoneB: 3},
		{At: 19 * time.Second, Kind: FaultHeal, Zone: 1, ZoneB: 3},
		{At: 25 * time.Second, Kind: FaultSlowLink, Zone: 1, ZoneB: 2, Factor: 50},
		{At: 33 * time.Second, Kind: FaultRestoreLink, Zone: 1, ZoneB: 2},
	}
}

// ParseSchedule reads a campaign from the line-oriented schedule syntax:
//
//	# comment
//	at 5s   fail-zone 2
//	at 12s  recover-zone 2
//	at 15s  partition 1 3
//	at 20s  heal 1 3
//	at 22s  kill-nn 2
//	at 26s  restart-nn 2
//	at 28s  crash-dn 4
//	at 31s  rejoin-dn 4
//	at 33s  slow-link 1 2 4
//	at 34s  lossy-link 2 3 0.2
//	at 36s  restore-link 1 2
//
// Durations use Go syntax (5s, 500ms). Zones are 1-based zone ids;
// crash-dn/rejoin-dn take an NDB datanode index plus an optional shard
// index ("crash-dn 4 1" crashes datanode 4 of shard 1's cluster),
// kill-nn/restart-nn a 1-based metadata-server id.
func ParseSchedule(text string) (Schedule, error) {
	var sched Schedule
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fail := func(format string, a ...any) (Schedule, error) {
			return nil, fmt.Errorf("chaos: line %d: %s", ln+1, fmt.Sprintf(format, a...))
		}
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "at" {
			return fail("want `at <duration> <kind> <args>`, got %q", raw)
		}
		at, err := time.ParseDuration(f[1])
		if err != nil {
			return fail("bad duration %q: %v", f[1], err)
		}
		st := Step{At: at, Kind: FaultKind(f[2])}
		args := f[3:]
		// Every kind takes a fixed number of integer arguments (crash-dn and
		// rejoin-dn an optional shard after the node); the link degradations
		// take one float after them. Anything left over is an error.
		ints, optional, float := 0, 0, false
		switch st.Kind {
		case FaultCrashDN, FaultRejoinDN:
			ints, optional = 1, 1
		case FaultKillNN, FaultRestartNN, FaultFailZone, FaultRecoverZone:
			ints = 1
		case FaultPartition, FaultHeal, FaultRestoreLink:
			ints = 2
		case FaultSlowLink, FaultLossyLink:
			ints, float = 2, true
		default:
			return fail("unknown fault kind %q", f[2])
		}
		need := ints
		if float {
			need++
		}
		if len(args) < need || len(args) > need+optional {
			return fail("%s takes %d argument(s) and %d optional, got %d", st.Kind, need, optional, len(args))
		}
		var n [2]int
		for i := 0; i < len(args) && i < ints+optional; i++ {
			if n[i], err = strconv.Atoi(args[i]); err != nil {
				return fail("%s: bad argument %q: %v", st.Kind, args[i], err)
			}
		}
		var v float64
		if float {
			if v, err = strconv.ParseFloat(args[ints], 64); err != nil {
				return fail("%s: bad argument %q: %v", st.Kind, args[ints], err)
			}
		}
		switch st.Kind {
		case FaultCrashDN, FaultRejoinDN:
			st.Node, st.Shard = n[0], n[1]
		case FaultKillNN, FaultRestartNN:
			st.Node = n[0]
		case FaultFailZone, FaultRecoverZone:
			st.Zone = simnet.ZoneID(n[0])
		case FaultSlowLink:
			st.Zone, st.ZoneB, st.Factor = simnet.ZoneID(n[0]), simnet.ZoneID(n[1]), v
		case FaultLossyLink:
			st.Zone, st.ZoneB, st.Loss = simnet.ZoneID(n[0]), simnet.ZoneID(n[1]), v
		default: // partition, heal, restore-link
			st.Zone, st.ZoneB = simnet.ZoneID(n[0]), simnet.ZoneID(n[1])
		}
		if err := st.checkRanges(); err != nil {
			return fail("%v", err)
		}
		sched = append(sched, st)
	}
	sched.Sort()
	return sched, nil
}

// checkRanges rejects values no deployment can execute: a negative
// instant, a slow-link factor that is not a finite positive number, a
// lossy-link probability outside [0,1] (NaN included). Node and zone
// indices depend on the deployment and are checked by Engine.validate.
func (s Step) checkRanges() error {
	switch {
	case s.At < 0:
		return fmt.Errorf("step %q: negative time", s)
	case s.Kind == FaultSlowLink && (!(s.Factor > 0) || math.IsInf(s.Factor, 0)):
		return fmt.Errorf("step %q: slow-link factor must be a finite number > 0", s)
	case s.Kind == FaultLossyLink && !(s.Loss >= 0 && s.Loss <= 1):
		return fmt.Errorf("step %q: lossy-link loss must be in [0,1]", s)
	}
	return nil
}
