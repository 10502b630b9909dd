package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Frame is one fixed-interval snapshot retained by a FlightRecorder: the
// virtual capture instant plus the filtered, name-sorted samples.
type Frame struct {
	At      time.Duration
	Samples []Sample
}

// Probe is a named callback sampled alongside the registry on every frame —
// the hook for values the registry cannot hold, such as histogram
// percentiles maintained by a harness.
type Probe struct {
	Name string
	Fn   func() float64
}

// FlightRecorder keeps a bounded ring of fixed-interval registry snapshots,
// so a run can answer "what did this signal look like over time" instead of
// only end-of-run totals. The caller drives Record from a virtual-time
// ticker (see core.Deployment.EnableFlightRecorder); the recorder itself
// never touches the clock, which keeps it deterministic and reusable in
// tests.
type FlightRecorder struct {
	mu       sync.Mutex
	reg      *Registry
	cap      int
	prefixes []string
	probes   []Probe
	frames   []Frame
	next     int
	dropped  int64
}

// NewFlightRecorder returns a recorder over reg retaining at most capacity
// frames (default 1024 for capacity <= 0; FIFO eviction beyond that).
func NewFlightRecorder(reg *Registry, capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &FlightRecorder{reg: reg, cap: capacity}
}

// Keep restricts captured registry samples to names with any of the given
// prefixes (e.g. "txn.", "net.link."). No filter keeps everything. Probes
// are always kept.
func (f *FlightRecorder) Keep(prefixes ...string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.prefixes = append(f.prefixes, prefixes...)
	f.mu.Unlock()
}

// AddProbe registers a named callback sampled on every frame.
func (f *FlightRecorder) AddProbe(name string, fn func() float64) {
	if f == nil || fn == nil {
		return
	}
	f.mu.Lock()
	f.probes = append(f.probes, Probe{Name: name, Fn: fn})
	f.mu.Unlock()
}

// Record captures one frame at the given virtual instant, evicting the
// oldest frame when the ring is full. The registry snapshot and the probe
// callbacks run outside the recorder lock: probes may touch the registry
// (or the recorder itself), and holding f.mu across an arbitrary callback
// would deadlock on reentrancy and serialize registry writers against the
// capture.
func (f *FlightRecorder) Record(now time.Duration) {
	if f == nil {
		return
	}
	f.mu.Lock()
	probes := append([]Probe(nil), f.probes...)
	prefixes := append([]string(nil), f.prefixes...)
	f.mu.Unlock()

	all := f.reg.Snapshot()
	samples := make([]Sample, 0, len(all)+len(probes))
	for _, s := range all {
		if keepsName(prefixes, s.Name) {
			samples = append(samples, s)
		}
	}
	for _, p := range probes {
		samples = append(samples, Sample{Name: p.Name, Kind: KindGauge, Value: p.Fn()})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
	fr := Frame{At: now, Samples: samples}

	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.frames) < f.cap {
		f.frames = append(f.frames, fr)
		return
	}
	f.dropped++
	f.frames[f.next] = fr
	f.next = (f.next + 1) % f.cap
}

func keepsName(prefixes []string, name string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Frames returns the retained frames, oldest first.
func (f *FlightRecorder) Frames() []Frame {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Frame, 0, len(f.frames))
	out = append(out, f.frames[f.next:]...)
	out = append(out, f.frames[:f.next]...)
	return out
}

// Dropped returns how many frames were evicted to make room.
func (f *FlightRecorder) Dropped() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// WriteCSV renders the retained frames as a deterministic CSV time series:
// one row per frame, one column per signal (the sorted union of all sample
// names across frames). Counter samples are emitted as per-frame deltas —
// the rate view a timeline wants — while gauges, maxima and probes keep
// their point values. Fields containing commas or quotes are quoted.
func (f *FlightRecorder) WriteCSV(w io.Writer) error {
	frames := f.Frames()
	cols := make(map[string]Kind)
	for _, fr := range frames {
		for _, s := range fr.Samples {
			cols[s.Name] = s.Kind
		}
	}
	names := make([]string, 0, len(cols))
	for name := range cols {
		names = append(names, name)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	bw.WriteString("t_ms")
	for _, name := range names {
		bw.WriteByte(',')
		bw.WriteString(csvQuote(name))
	}
	bw.WriteByte('\n')
	prev := make(map[string]float64)
	for _, fr := range frames {
		vals := make(map[string]float64, len(fr.Samples))
		for _, s := range fr.Samples {
			vals[s.Name] = s.Value
		}
		writeCSVFloat(bw, float64(fr.At)/1e6)
		for _, name := range names {
			bw.WriteByte(',')
			v := vals[name]
			if cols[name] == KindCounter {
				d := v - prev[name]
				prev[name] = v
				v = d
			}
			writeCSVFloat(bw, v)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// writeCSVFloat renders a value with up to three decimals, trimming
// trailing zeros so counters print as integers.
func writeCSVFloat(bw *bufio.Writer, v float64) {
	s := strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
	if s == "" || s == "-" {
		s = "0"
	}
	bw.WriteString(s)
}

func csvQuote(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
}
