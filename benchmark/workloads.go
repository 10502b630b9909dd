package main

import "time"

// spec is one benchmark workload: a deployment shape, an operation mix and
// the length of its windows. Every workload spans 3 AZs at metadata
// replication 3 over workload.DefaultNamespace.
type spec struct {
	name, why string
	// setup is the paper's legend name of the deployment (core.PaperSetups).
	setup string
	mix   string
	// nns × clientsPerNN closed-loop clients: the client count is the load.
	nns, clientsPerNN int
	// storageNodes NDB datanodes per shard, partitions per table, shards.
	storageNodes, partitions, shards int
	// warmSteps is the warm-up rule: run unrecorded until the clients have
	// averaged this many generator steps.
	warmSteps int
	// virtualPerSecond is how much virtual time the untraced window covers
	// per second of --seconds. It was sized so that one second of the
	// argument costs about one host second on the 2-core box the benchmark
	// was written on; fixing it (not stopping on a host clock) is what makes
	// the virtual metrics repeat exactly per seed.
	virtualPerSecond time.Duration
	// slice is the virtual length of one slice of a window; host cost is
	// taken per slice and reported as the median.
	slice time.Duration
}

// rounds is how many deployments a --trace 0 run builds, warms up and
// measures; each gets an equal share of the window.
const rounds = 3

var specs = []spec{
	{
		name: "spotify_cl33",
		why: "HopsFS-CL (3,3), 12 NNs x 32 clients, Spotify mix: read-dominated and latency-bound, " +
			"so path resolution, the hint cache and AZ-local reads do the work and 2PC little",
		setup: "HopsFS-CL (3,3)", mix: "spotify",
		nns: 12, clientsPerNN: 32, storageNodes: 12, partitions: 48, shards: 1,
		warmSteps: 120, virtualPerSecond: 140 * time.Millisecond, slice: 14 * time.Millisecond,
	},
	{
		name: "mutate_cl33",
		why: "same deployment, mutations only: every op takes row locks and a cross-AZ linear-2PC commit, " +
			"so write batching, commit trains and lock wait dominate and the read path is bypassed",
		setup: "HopsFS-CL (3,3)", mix: "mutate",
		nns: 12, clientsPerNN: 32, storageNodes: 12, partitions: 48, shards: 1,
		warmSteps: 120, virtualPerSecond: 200 * time.Millisecond, slice: 20 * time.Millisecond,
	},
	{
		name: "spotify_shard2_sat",
		why: "HopsFS-CL (3,3) over 2 shards x 3 NDB nodes, 24 NNs x 128 clients: the only workload on the " +
			"storage plateau and the only one where shard routing and the cross-shard commit run at all",
		setup: "HopsFS-CL (3,3)", mix: "spotify",
		nns: 24, clientsPerNN: 128, storageNodes: 3, partitions: 24, shards: 2,
		warmSteps: 24, virtualPerSecond: 24 * time.Millisecond, slice: 2 * time.Millisecond,
	},
	{
		name: "spotify_hops33_60nn",
		why: "AZ-unaware HopsFS (3,3), 60 NNs x 64 clients, the paper's control: every op pays cross-AZ " +
			"round trips, and 3840 clients make the largest event heap, where kernel cost shows",
		setup: "HopsFS (3,3)", mix: "spotify",
		nns: 60, clientsPerNN: 64, storageNodes: 12, partitions: 48, shards: 1,
		warmSteps: 24, virtualPerSecond: 15 * time.Millisecond, slice: 2 * time.Millisecond,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// runSeconds is the --seconds the benchmark is sized and accepted at.
const runSeconds = 10
