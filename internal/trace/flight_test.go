package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderFramesAndCSV(t *testing.T) {
	reg := NewRegistry()
	ops := reg.Counter("op.stat.count")
	lat := reg.Gauge("op.stat.p99_ms")
	reg.Counter("noise.other").Add(99)

	fr := NewFlightRecorder(reg, 8)
	fr.Keep("op.")
	probeVal := 1.5
	fr.AddProbe("probe.depth", func() float64 { return probeVal })

	ops.Add(3)
	lat.Set(0.25)
	fr.Record(10 * time.Millisecond)
	ops.Add(5)
	probeVal = 2.5
	fr.Record(20 * time.Millisecond)

	frames := fr.Frames()
	if len(frames) != 2 {
		t.Fatalf("frames = %d, want 2", len(frames))
	}
	if frames[0].At != 10*time.Millisecond || frames[1].At != 20*time.Millisecond {
		t.Fatalf("frame instants: %v, %v", frames[0].At, frames[1].At)
	}
	for _, s := range frames[0].Samples {
		if strings.HasPrefix(s.Name, "noise.") {
			t.Fatalf("prefix filter leaked %q", s.Name)
		}
	}

	var b strings.Builder
	if err := fr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	csv := b.String()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 rows:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "t_ms,") || !strings.Contains(lines[0], "op.stat.count") || !strings.Contains(lines[0], "probe.depth") {
		t.Fatalf("csv header = %q", lines[0])
	}
	// Counters render as per-frame deltas: 3 in frame 1, then +5.
	if !strings.HasPrefix(lines[1], "10,") || !strings.Contains(lines[1], ",3,") {
		t.Fatalf("frame 1 row = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "20,") || !strings.Contains(lines[2], ",5,") {
		t.Fatalf("frame 2 row = %q", lines[2])
	}
	// Probe (gauge) keeps its point value.
	if !strings.Contains(lines[2], "2.5") {
		t.Fatalf("probe value missing from %q", lines[2])
	}

	// Byte determinism.
	var b2 strings.Builder
	if err := fr.WriteCSV(&b2); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatal("CSV output not deterministic")
	}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(reg, 4)
	for i := 1; i <= 10; i++ {
		fr.Record(time.Duration(i) * time.Millisecond)
	}
	frames := fr.Frames()
	if len(frames) != 4 {
		t.Fatalf("frames = %d, want 4", len(frames))
	}
	if fr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", fr.Dropped())
	}
	if frames[0].At != 7*time.Millisecond || frames[3].At != 10*time.Millisecond {
		t.Fatalf("eviction kept wrong frames: %v..%v", frames[0].At, frames[3].At)
	}
}

func TestFlightRecorderNilSafety(t *testing.T) {
	var fr *FlightRecorder
	fr.Keep("x.")
	fr.AddProbe("p", func() float64 { return 0 })
	fr.Record(time.Second)
	if fr.Frames() != nil || fr.Dropped() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

func TestSinkDropAccounting(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	sink := tr.EnableSink(2)
	for i := 0; i < 5; i++ {
		sp := tr.StartOp("stat", time.Duration(i)*time.Millisecond)
		sp.Finish(time.Duration(i+1) * time.Millisecond)
	}
	if sink.Total() != 5 {
		t.Fatalf("total = %d, want 5", sink.Total())
	}
	if sink.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", sink.Dropped())
	}
	if got, ok := Lookup(reg.Snapshot(), "trace.sink.dropped"); !ok || got != 3 {
		t.Fatalf("trace.sink.dropped = %v (present=%v), want 3", got, ok)
	}
	if len(sink.Spans()) != 2 {
		t.Fatalf("retained = %d, want 2", len(sink.Spans()))
	}
	sink.Reset()
	if sink.Dropped() != 0 {
		t.Fatal("Reset did not clear dropped")
	}
	var nilSink *Sink
	if nilSink.Dropped() != 0 {
		t.Fatal("nil sink Dropped != 0")
	}
}

// TestFlightRecorderReentrantProbe pins the lock discipline of Record:
// probe callbacks run outside the recorder mutex, so a probe may call back
// into the recorder (or trigger registry reads) without deadlocking. This
// hung forever when Record held f.mu across the callbacks.
func TestFlightRecorderReentrantProbe(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(reg, 4)
	fr.AddProbe("meta.dropped", func() float64 { return float64(fr.Dropped()) })
	fr.AddProbe("meta.frames", func() float64 { return float64(len(fr.Frames())) })

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			fr.Record(time.Duration(i) * 10 * time.Millisecond)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Record deadlocked on a reentrant probe")
	}
	if fr.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", fr.Dropped())
	}
}

// TestFlightRecorderConcurrentRecord exercises Record against concurrent
// registry writers and probe registration; run with -race this is the
// regression test for the probe-snapshot data race.
func TestFlightRecorderConcurrentRecord(t *testing.T) {
	reg := NewRegistry()
	ctr := reg.Counter("op.mixed.count")
	fr := NewFlightRecorder(reg, 64)
	fr.Keep("op.")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ctr.Add(1)
				reg.Gauge("op.mixed.g").Set(1)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 32; i++ {
			fr.AddProbe(fmt.Sprintf("probe.%d", i), func() float64 { return float64(fr.Dropped()) })
		}
	}()
	for i := 0; i < 200; i++ {
		fr.Record(time.Duration(i) * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if len(fr.Frames()) == 0 {
		t.Fatal("no frames recorded")
	}
}
