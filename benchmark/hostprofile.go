package main

// hostprofile.go folds the W2 profiles by package: which part of the
// simulator burns the host's CPU and makes its allocations. A sample goes to
// the innermost frame that belongs to one of the repository's packages; a
// stack with none is the Go runtime working on its own account — the
// collector's background workers, or the scheduler handing the one runnable
// goroutine of the cooperative kernel on.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

const repoPrefix = "hopsfscl/internal/"

// hostBuckets are the names host.cpu.* and host.allocs.* are reported under.
var hostBuckets = []string{
	"sim", "simnet", "ndb", "shard", "namenode", "workload", "trace", "slo", "heat", "metrics",
	"core", "bench", "runtime_gc", "runtime_sched", "other",
}

func isHostBucket(name string) bool {
	for _, b := range hostBuckets {
		if b == name {
			return true
		}
	}
	return false
}

// bucketOf classifies one stack, given innermost frame first.
func bucketOf(funcs []string) string {
	for _, fn := range funcs {
		if strings.HasPrefix(fn, repoPrefix) {
			pkg := fn[len(repoPrefix):]
			if i := strings.IndexByte(pkg, '.'); i >= 0 {
				pkg = pkg[:i]
			}
			if isHostBucket(pkg) {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	for _, fn := range funcs {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.gcAssistAlloc"):
			return "runtime_gc"
		}
	}
	for _, fn := range funcs {
		switch fn {
		case "runtime.schedule", "runtime.park_m", "runtime.mcall", "runtime.goexit0", "runtime.gosched_m",
			"runtime.findRunnable", "runtime.mstart", "runtime.goready", "runtime.ready":
			return "runtime_sched"
		}
	}
	return "other"
}

func shares(weights map[string]float64) map[string]float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make(map[string]float64, len(hostBuckets))
	for _, b := range hostBuckets {
		if total > 0 {
			out[b] = weights[b] / total
		} else {
			out[b] = 0
		}
	}
	return out
}

// allocSamples reads the allocation profile as of now. The runtime
// publishes a profile two collections late, hence the two cycles.
func allocSamples() []runtime.MemProfileRecord {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			return recs[:n]
		}
	}
}

// foldAllocs turns the difference of two allocation profiles into each
// bucket's share of the objects allocated in between. A profile samples by
// bytes, so each record is scaled back to objects by its mean size.
func foldAllocs(before, after []runtime.MemProfileRecord) map[string]float64 {
	type key [32]uintptr
	base := make(map[key]runtime.MemProfileRecord, len(before))
	for _, r := range before {
		base[r.Stack0] = r
	}
	rate := float64(runtime.MemProfileRate)
	weights := make(map[string]float64)
	for _, r := range after {
		b := base[r.Stack0]
		objs, bytes := float64(r.AllocObjects-b.AllocObjects), float64(r.AllocBytes-b.AllocBytes)
		if objs <= 0 || bytes <= 0 {
			continue
		}
		scale := 1 / (1 - math.Exp(-bytes/objs/rate))
		var funcs []string
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		weights[bucketOf(funcs)] += objs * scale
	}
	return shares(weights)
}

// foldCPU turns a pprof CPU profile into each bucket's share of samples.
func foldCPU(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	weights := make(map[string]float64)
	for _, s := range p.samples {
		var funcs []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				funcs = append(funcs, p.strings[p.funcName[fn]])
			}
		}
		weights[bucketOf(funcs)] += float64(s.count)
	}
	return shares(weights), nil
}

// The rest is the small part of pprof's profile.proto the fold needs:
// samples (location ids, innermost first, and the sample count), locations
// (their lines' function ids, innermost first), functions (name index) and
// the string table.

type cpuSample struct {
	locs  []uint64
	count int64
}

type parsedProfile struct {
	samples  []cpuSample
	locFuncs map[uint64][]uint64
	funcName map[uint64]int64
	strings  []string
}

var errTruncated = errors.New("truncated protobuf")

// field reads one protobuf field: its number, and either a varint value or
// a length-delimited payload.
func field(b []byte) (num int, v uint64, payload, rest []byte, err error) {
	tag, b, err := varint(b)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	num = int(tag >> 3)
	switch tag & 7 {
	case 0:
		v, b, err = varint(b)
		return num, v, nil, b, err
	case 1:
		if len(b) < 8 {
			return 0, 0, nil, nil, errTruncated
		}
		return num, 0, nil, b[8:], nil
	case 2:
		n, b, err := varint(b)
		if err != nil || uint64(len(b)) < n {
			return 0, 0, nil, nil, errTruncated
		}
		return num, 0, b[:n], b[n:], nil
	case 5:
		if len(b) < 4 {
			return 0, 0, nil, nil, errTruncated
		}
		return num, 0, nil, b[4:], nil
	}
	return 0, 0, nil, nil, fmt.Errorf("protobuf wire type %d", tag&7)
}

func varint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// repeated appends a repeated integer field, packed or not.
func repeated(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		var err error
		if v, payload, err = varint(payload); err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func parseProfile(b []byte) (*parsedProfile, error) {
	p := &parsedProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	for len(b) > 0 {
		num, _, payload, rest, err := field(b)
		if err != nil {
			return nil, err
		}
		b = rest
		switch num {
		case 2: // Sample: location_id = 1, value = 2 (first value: samples)
			var s cpuSample
			var values []uint64
			for len(payload) > 0 {
				n, v, pl, rest, err := field(payload)
				if err != nil {
					return nil, err
				}
				payload = rest
				switch n {
				case 1:
					if s.locs, err = repeated(s.locs, v, pl); err != nil {
						return nil, err
					}
				case 2:
					if values, err = repeated(values, v, pl); err != nil {
						return nil, err
					}
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // Location: id = 1, line = 4 { function_id = 1 }
			var id uint64
			var funcs []uint64
			for len(payload) > 0 {
				n, v, pl, rest, err := field(payload)
				if err != nil {
					return nil, err
				}
				payload = rest
				switch n {
				case 1:
					id = v
				case 4:
					for len(pl) > 0 {
						ln, lv, _, lrest, err := field(pl)
						if err != nil {
							return nil, err
						}
						pl = lrest
						if ln == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // Function: id = 1, name = 2
			var id uint64
			var name int64
			for len(payload) > 0 {
				n, v, _, rest, err := field(payload)
				if err != nil {
					return nil, err
				}
				payload = rest
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(payload))
		}
	}
	for _, name := range p.funcName {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}
