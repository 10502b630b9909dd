package main

// metrics.go names what a run measured. The tables here are the single
// source of the metric names, units and bounds: BENCHMARK.json is printed
// from them (-manifest) and the test holds the two together.

import (
	"fmt"
	"strings"
)

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is a regression.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, on two clocks: v* and
// xaz_* are the simulated HopsFS-CL on the virtual clock, wall_*, allocs_*
// and setup_s are the simulator on the host's.
var endToEnd = []metricDef{
	{"vops_per_s", "1/s", "higher", 0.02},
	{"vlat_p50_ms", "ms", "lower", 0.02},
	{"vlat_p99_ms", "ms", "lower", 0.04},
	{"vlat_p999_ms", "ms", "lower", 0.06},
	{"xaz_bytes_per_vop", "B/op", "lower", 0.02},
	{"wall_us_per_vop", "us/op", "lower", 0.25},
	{"allocs_per_vop", "1/op", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

var cpCategories = []string{
	"lock_wait", "2pc.prepare", "2pc.commit", "2pc.complete",
	"net.local", "net.same_host", "net.same_zone", "net.cross_az", "compute",
}

var phases = []string{"prepare", "commit", "complete"}

// perLayer lists the per-layer metrics in report order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, op := range opNames[1:] {
		add("op."+op+".count", "count", "higher")
		add("op."+op+".p50_ms", "ms", "lower")
		add("op."+op+".p99_ms", "ms", "lower")
	}
	add("namenode.cpu_util", "ratio", "lower")
	add("namenode.reqs_per_vop", "1/op", "lower")
	add("namenode.resolve_cache.hit_ratio", "ratio", "higher")
	add("namenode.resolve_cache.size", "count", "higher")
	add("ndb.cpu_util", "ratio", "lower")
	for _, t := range threadNames() {
		add("ndb.thread."+strings.ToLower(t)+".util", "ratio", "lower")
	}
	for _, n := range []string{"commits", "aborts", "reads", "writes", "lock_acq"} {
		add("ndb."+n+"_per_vop", "1/op", "lower")
	}
	add("ndb.lock_wait_us_per_vop", "us/op", "lower")
	add("ndb.contention_blocks_per_vop", "1/op", "lower")
	add("ndb.read_batch.rows_per_batch", "count", "higher")
	add("ndb.write_batch.rows_per_batch", "count", "higher")
	add("ndb.commit.rows_per_train", "count", "higher")
	add("ndb.tc_select.local_az_ratio", "ratio", "higher")
	for _, ph := range phases {
		add("ndb.phase."+ph+".mean_us", "us", "lower")
	}
	for _, c := range cpCategories {
		add("cp."+strings.ReplaceAll(c, ".", "_"), "ratio", "lower")
	}
	add("simnet.msgs_per_vop", "1/op", "lower")
	add("simnet.bytes_per_vop", "B/op", "lower")
	add("simnet.xaz_msgs_per_vop", "1/op", "lower")
	add("simnet.nic.storage_bytes_per_vop", "B/op", "lower")
	add("simnet.nic.server_bytes_per_vop", "B/op", "lower")
	add("simnet.dropped", "count", "lower")
	add("shard.txn.local_per_vop", "1/op", "lower")
	add("shard.txn.cross_share", "ratio", "lower")
	add("shard.cross_commit.mean_ms", "ms", "lower")
	add("shard.cross_commit.max_ms", "ms", "lower")
	add("shard.cross_aborts", "count", "lower")
	add("shard.intents_resolved", "count", "lower")
	add("workload.no_target_share", "ratio", "lower")
	add("workload.outcome_error_share", "ratio", "lower")
	for _, b := range hostBuckets {
		add("host.cpu."+b, "ratio", "lower")
	}
	for _, b := range hostBuckets {
		add("host.allocs."+b, "ratio", "lower")
	}
	add("host.trace_overhead_ratio", "ratio", "lower")
	add("host.gc_cycles", "count", "lower")
	add("host.peak_heap_mb", "MB", "lower")
	add("host.w1_slice_spread", "ratio", "lower")
	return out
}

// div is a ratio that reads 0 when its base is 0: a counter the layer does
// not have (no shard router, no writes) is reported as nothing happening.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const msPerNS = 1e-6

// endToEndValues computes the end-to-end metrics from W1. It also returns
// why they cannot be trusted, if they cannot.
func (r *result) endToEndValues() (map[string]float64, []string) {
	var bad []string
	ops := float64(r.w1.ops)
	m := map[string]float64{
		"vops_per_s":        div(ops, r.w1.virtual.Seconds()),
		"xaz_bytes_per_vop": div(r.delta["x.net.xaz_bytes"], ops),
		"wall_us_per_vop":   r.w1.usPerOp(),
		"allocs_per_vop":    div(float64(r.w1.mallocs), ops),
		"setup_s":           median(r.setupS),
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"vlat_p50_ms", 0.50}, {"vlat_p99_ms", 0.99}, {"vlat_p999_ms", 0.999}} {
		v, beyond := percentile(r.lat, p.q)
		m[p.name] = float64(v) * msPerNS
		if beyond < 10 {
			bad = append(bad, fmt.Sprintf("%s has %d samples beyond it (n=%d), fewer than 10", p.name, beyond, len(r.lat)))
		}
	}
	return m, bad
}

// perLayerValues computes the per-layer metrics of a --trace 1 run. The
// virtual ones cover W1 to W3, the host ones the window named.
func (r *result) perLayerValues() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	ops := float64(len(r.lat))
	d := func(key string) float64 { return r.delta[key] }
	virtualNS := d("x.now_ns")

	for i, op := range opNames {
		if i == 0 {
			continue
		}
		s := r.byOp[i]
		p50, _ := percentile(s, 0.50)
		p99, _ := percentile(s, 0.99)
		m["op."+op+".count"] = float64(len(s))
		m["op."+op+".p50_ms"] = float64(p50) * msPerNS
		m["op."+op+".p99_ms"] = float64(p99) * msPerNS
	}

	m["namenode.cpu_util"] = div(d("x.nn.busy"), r.last["x.nn.cap"]*virtualNS)
	m["namenode.reqs_per_vop"] = div(d("x.nn.reqs"), ops)
	hit, miss, fb := d("namenode.resolve_cache{result=hit}"), d("namenode.resolve_cache{result=miss}"), d("namenode.resolve_cache{result=fallback}")
	m["namenode.resolve_cache.hit_ratio"] = div(hit, hit+miss+fb)
	m["namenode.resolve_cache.size"] = r.last["namenode.resolve_cache.size"]

	var busy, capacity float64
	for _, t := range threadNames() {
		b, c := d("x.ndb.busy."+t), r.last["x.ndb.cap."+t]
		m["ndb.thread."+strings.ToLower(t)+".util"] = div(b, c*virtualNS)
		busy, capacity = busy+b, capacity+c
	}
	m["ndb.cpu_util"] = div(busy, capacity*virtualNS)
	for _, n := range []string{"commits", "aborts", "reads", "writes"} {
		m["ndb."+n+"_per_vop"] = div(d("x.ndb."+n), ops)
	}
	m["ndb.lock_acq_per_vop"] = div(d("txn.lock.acquisitions"), ops)
	m["ndb.lock_wait_us_per_vop"] = div(d("txn.lock_wait.sum_ns")/1e3, ops)
	m["ndb.contention_blocks_per_vop"] = div(d("ndb.contention.blocks"), ops)
	m["ndb.read_batch.rows_per_batch"] = div(d("ndb.batch.rows"), d("ndb.batch.reads"))
	m["ndb.write_batch.rows_per_batch"] = div(d("ndb.batch_write.rows"), d("ndb.batch_write.batches"))
	m["ndb.commit.rows_per_train"] = div(d("ndb.commit.rows_per_train.sum_ns"), d("ndb.commit.rows_per_train.count"))
	m["ndb.tc_select.local_az_ratio"] = div(d("ndb.tc_select{prox=same_host}")+d("ndb.tc_select{prox=same_zone}"), d("ndb.tc_select"))
	for _, ph := range phases {
		m["ndb.phase."+ph+".mean_us"] = div(d("txn.phase."+ph+".sum_ns")/1e3, d("txn.phase."+ph+".count"))
	}

	for _, c := range cpCategories {
		m["cp."+strings.ReplaceAll(c, ".", "_")] = r.cp[c]
	}

	m["simnet.msgs_per_vop"] = div(d("x.net.msgs"), ops)
	m["simnet.bytes_per_vop"] = div(d("x.net.bytes"), ops)
	m["simnet.xaz_msgs_per_vop"] = div(d("net.msgs{class=cross_az}"), ops)
	m["simnet.nic.storage_bytes_per_vop"] = div(d("x.nic.storage_bytes"), ops)
	m["simnet.nic.server_bytes_per_vop"] = div(d("x.nic.server_bytes"), ops)
	m["simnet.dropped"] = d("x.net.dropped")

	local, cross := d("shard.txn.local"), d("shard.txn.cross")
	m["shard.txn.local_per_vop"] = div(local, ops)
	m["shard.txn.cross_share"] = div(cross, local+cross)
	m["shard.cross_commit.mean_ms"] = div(d("shard.txn.cross_commit.sum_ns")*msPerNS, d("shard.txn.cross_commit.count"))
	m["shard.cross_commit.max_ms"] = r.last["shard.txn.cross_commit.max_ns"] * msPerNS
	m["shard.cross_aborts"] = d("shard.txn.cross_aborts")
	m["shard.intents_resolved"] = d("shard.intents.resolved")

	m["workload.no_target_share"] = div(d("x.no_target"), ops+d("x.no_target"))
	m["workload.outcome_error_share"] = div(float64(r.errs-r.failed), ops)

	for _, b := range hostBuckets {
		m["host.cpu."+b] = r.hostCPU[b]
		m["host.allocs."+b] = r.hostAlloc[b]
	}
	m["host.trace_overhead_ratio"] = div(r.w3.usPerOp(), r.w1.usPerOp())
	m["host.gc_cycles"] = float64(r.gcCycles)
	m["host.peak_heap_mb"] = r.peakHeapMB
	m["host.w1_slice_spread"] = r.w1.spread()
	return m
}
