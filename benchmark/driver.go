package main

// driver.go is the benchmark's own closed loop. It does not use
// internal/bench.Run, so a later refactor of the harness cannot move the
// yardstick.
//
// One round is, on one deployment and in this order: set-up (build +
// warm-up) → W1, an untraced, unprofiled window cut into equal virtual-time
// slices → only with --trace 1: W2, the same under a CPU and allocation
// profile, and W3, the same with span capture on → quiesce → correctness
// check.
//
// With --trace 0 a run is several rounds, each a fresh deployment on its own
// seed, pooled: set-up has to be timed more than once (setup_s is the
// median), and measuring every deployment that was set up costs no more than
// discarding all but the last. With --trace 1 it is a single round.

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

const (
	// Warm-up runs in steps of this much virtual time, and gives up after
	// maxWarmup: the harness's rule.
	warmStep  = 20 * time.Millisecond
	maxWarmup = 4 * time.Second
	// The traced window is sized for about tracedOps operations and must
	// fit the sink without a single drop.
	tracedOps = 50_000
	sinkCap   = 64 << 10
	// The correctness check stats this many paths the model holds, and a
	// quarter as many it saw removed.
	verifyPaths = 1000
	// maxOps bounds the preallocated latency sample of a run (36 MB); the
	// largest W1 at --seconds 60 stays below it.
	maxOps = 4 << 20
	// A window that costs this many times its --seconds on the host is cut
	// short, so that a slow box still finishes; the result says so.
	hostGuard = 2.5
)

// recorder receives every finished client call of a run. All its storage
// is allocated before the first window.
type recorder struct {
	on  bool    // inside a measured window
	lat []int64 // virtual ns per served op, in completion order
	cls []uint8 // its op class (index into opNames)
	n   int
	// errs counts calls that returned any error inside the windows; failed
	// those that were not a correct answer (see recFS.done).
	errs, failed int64
	overflow     bool
}

func newRecorder(maxOps int) *recorder {
	return &recorder{lat: make([]int64, maxOps), cls: make([]uint8, maxOps)}
}

func (r *recorder) observe(op int, d time.Duration, isErr, failed bool) {
	if !r.on {
		return
	}
	if r.n == len(r.lat) {
		r.overflow = true
		return
	}
	r.lat[r.n], r.cls[r.n] = int64(d), uint8(op)
	r.n++
	if isErr {
		r.errs++
	}
	if failed {
		r.failed++
	}
}

// window is what one measured window cost, or several of them pooled.
type window struct {
	virtual time.Duration
	ops     int
	// sliceUS is the host cost of each slice in µs per served op.
	sliceUS []float64
	hostNS  int64
	mallocs uint64
	// cut is set when the host guard ended a window early.
	cut bool
}

func (w *window) add(o window) {
	w.virtual += o.virtual
	w.ops += o.ops
	w.sliceUS = append(w.sliceUS, o.sliceUS...)
	w.hostNS += o.hostNS
	w.mallocs += o.mallocs
	w.cut = w.cut || o.cut
}

// usPerOp is the median slice cost: a slow slice (a GC cycle, a neighbour
// on the box) does not move it.
func (w *window) usPerOp() float64 { return median(w.sliceUS) }

// spread is the inter-quartile range of the slice costs over their median.
func (w *window) spread() float64 {
	if len(w.sliceUS) < 4 {
		return 0
	}
	q1, q3 := quartiles(w.sliceUS)
	return (q3 - q1) / median(w.sliceUS)
}

// measure runs one window of the given virtual length in slices. The
// driver allocates nothing between the two memory readings.
func measure(b *bed, length, slice time.Duration, hostBudget time.Duration) window {
	var w window
	n := max(int(length/slice), 1)
	w.sliceUS = make([]float64, 0, n)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ops0 := b.rec.n
	b.rec.on = true
	for i := 0; i < n; i++ {
		t0, o0 := time.Now(), b.rec.n
		b.runFor(slice)
		if served := b.rec.n - o0; served > 0 {
			w.sliceUS = append(w.sliceUS, float64(time.Since(t0).Nanoseconds())/1e3/float64(served))
		}
		w.virtual += slice
		if time.Since(start) > hostBudget {
			w.cut = i+1 < n
			break
		}
	}
	b.rec.on = false
	w.hostNS = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&m1)
	w.ops = b.rec.n - ops0
	w.mallocs = m1.Mallocs - m0.Mallocs
	return w
}

// result is everything one run measured, before it is turned into named
// metrics.
type result struct {
	spec   spec
	traced bool

	setupS []float64
	w1     window
	// delta sums, over the rounds, what each cumulative counter of
	// bed.snapshot gained across the measured windows — W1 alone, or W1 to
	// W3 with --trace 1 (profiling and tracing cost host time only; the
	// virtual schedule is the same). last is the final snapshot, for gauges.
	delta, last  map[string]float64
	lat          []int64 // sorted
	byOp         [len(opNames)][]int64
	errs, failed int64

	// --trace 1 only.
	w2, w3             window
	hostCPU, hostAlloc map[string]float64
	cp                 map[string]float64
	sinkDropped        int64
	gcCycles           uint32
	peakHeapMB         float64

	violations []string
	// raw artefacts for -profiles.
	cpuProfile []byte
	folded     string
}

// setUp builds the deployment and warms it up.
func setUp(s spec, seed int64, rec *recorder) (*bed, error) {
	t0 := time.Now()
	b, err := build(s, seed, rec)
	if err != nil {
		return nil, err
	}
	built := time.Since(t0)
	target := int64(b.clients()) * int64(s.warmSteps)
	for b.steps < target && b.now() < maxWarmup {
		b.runFor(warmStep)
	}
	fmt.Fprintf(logw, "set-up: build %.2fs, warm-up %.2fs (%d steps, %v virtual)\n",
		built.Seconds(), (time.Since(t0) - built).Seconds(), b.steps, b.now())
	return b, nil
}

// roundSeed keeps the rounds of all runs apart: a deployment seeds client i
// with seed+i, so neighbouring seeds would share generator streams.
func roundSeed(seed int64, rounds, round int) int64 {
	return (seed*int64(rounds) + int64(round)) << 16
}

func run(s spec, seed int64, seconds float64, traced bool) (*result, error) {
	res := &result{spec: s, traced: traced, delta: map[string]float64{}}
	rec := newRecorder(maxOps)
	rounds := rounds
	if traced {
		rounds = 1
		// Sample allocations 16 times as densely as the default, for the
		// whole process, so that W1 and W3 compare like with like.
		runtime.MemProfileRate = 32 << 10
	}
	length := time.Duration(seconds * float64(s.virtualPerSecond) / float64(rounds))
	budget := func(share float64) time.Duration {
		return time.Duration(hostGuard * share * seconds / float64(rounds) * float64(time.Second))
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	for round := 0; round < rounds; round++ {
		runtime.GC()
		t0 := time.Now()
		b, err := setUp(s, roundSeed(seed, rounds, round), rec)
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())

		before := b.snapshot()
		if !traced {
			res.w1.add(measure(b, length, s.slice, budget(1)))
		} else if err := res.tracedWindows(b, length, budget); err != nil {
			b.close()
			return nil, err
		}
		res.last = b.snapshot()
		for k, v := range res.last {
			res.delta[k] += v - before[k]
		}

		if err := b.quiesce(); err != nil {
			res.violations = append(res.violations, fmt.Sprintf("round %d: %v", round, err))
		}
		for _, v := range b.verify(seed, verifyPaths) {
			res.violations = append(res.violations, fmt.Sprintf("round %d: %s", round, v))
		}
		b.close()
	}
	runtime.ReadMemStats(&gc1)
	res.gcCycles = gc1.NumGC - gc0.NumGC
	res.peakHeapMB = float64(gc1.HeapSys) / (1 << 20)
	res.errs, res.failed = rec.errs, rec.failed

	// The sample is sorted only now: nothing inside a window sorts or
	// allocates on the driver's side.
	if rec.overflow {
		res.violations = append(res.violations, fmt.Sprintf("latency sample overflowed its %d slots", len(rec.lat)))
	}
	res.lat = rec.lat[:rec.n]
	for i, d := range res.lat {
		c := rec.cls[i]
		res.byOp[c] = append(res.byOp[c], d)
	}
	slices.Sort(res.lat)
	for i := range res.byOp {
		slices.Sort(res.byOp[i])
	}
	if res.sinkDropped > 0 {
		res.violations = append(res.violations, fmt.Sprintf("span sink dropped %d trees", res.sinkDropped))
	}
	if res.w1.cut || res.w2.cut || res.w3.cut {
		fmt.Fprintf(logw, "note: a window hit the host guard (%.1fx its share of --seconds) and was cut short; the virtual metrics cover fewer slices than on a faster box\n", hostGuard)
	}
	return res, nil
}

// tracedWindows is the --trace 1 round: W1 and W3 get a quarter of the run
// each (W3 less if tracedOps is reached sooner), W2 half, since a 100 Hz
// profile needs the samples.
func (res *result) tracedWindows(b *bed, length time.Duration, budget func(float64) time.Duration) error {
	s := res.spec
	res.w1 = measure(b, length/4, s.slice, budget(0.25))

	var cpu bytes.Buffer
	allocs0 := allocSamples()
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	res.w2 = measure(b, length/2, s.slice, budget(0.5))
	pprof.StopCPUProfile()
	res.hostAlloc = foldAllocs(allocs0, allocSamples())
	res.cpuProfile = cpu.Bytes()
	var err error
	if res.hostCPU, err = foldCPU(res.cpuProfile); err != nil {
		return err
	}

	// W3 covers about tracedOps at the rate W1 saw, which is a virtual
	// quantity, so its length repeats per seed too.
	w3 := time.Duration(float64(tracedOps) / float64(max(res.w1.ops, 1)) * float64(res.w1.virtual))
	w3 = max(min(w3, length/4)/s.slice*s.slice, s.slice)
	b.enableTracing(sinkCap)
	res.w3 = measure(b, w3, s.slice, budget(0.25))
	res.cp, res.sinkDropped, res.folded = b.criticalPath()
	return nil
}

// percentile is the exact nearest-rank percentile of a sorted sample and
// the number of samples beyond it.
func percentile(sorted []int64, q float64) (v int64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := max(int(math.Ceil(q*float64(len(sorted)))), 1)
	return sorted[rank-1], len(sorted) - rank
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the rule the
// acceptance procedure uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	at := func(k int) float64 {
		n := len(s)
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}
