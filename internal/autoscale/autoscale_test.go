package autoscale

import (
	"strings"
	"testing"
	"time"
)

// testConfig returns thresholds tuned for the compressed-day elastic
// experiments: evaluations every few tens of milliseconds of virtual time,
// days a few seconds long.
func testConfig() Config {
	return Config{
		Min:        1,
		Max:        8,
		TargetP99:  30 * time.Millisecond,
		UpUtil:     0.70,
		DownUtil:   0.30,
		UpStreak:   2,
		DownStreak: 6,
		Cooldown:   200 * time.Millisecond,
	}
}

func newTest(t *testing.T, tweak func(*Config)) *Controller {
	t.Helper()
	cfg := testConfig()
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestUpStreakRequired(t *testing.T) {
	c := newTest(t, nil)
	hot := Signals{Serving: 2, Util: 0.9, P99: 5 * time.Millisecond}
	if d, _ := c.Evaluate(0, hot); d != 0 {
		t.Fatalf("scaled up after one sample (delta %d)", d)
	}
	if d, _ := c.Evaluate(50*time.Millisecond, hot); d != 1 {
		t.Fatalf("no scale-up after streak (delta %d)", d)
	}
}

func TestMixedSignalsResetStreaks(t *testing.T) {
	c := newTest(t, nil)
	hot := Signals{Serving: 2, Util: 0.9}
	calm := Signals{Serving: 2, Util: 0.5, P99: 5 * time.Millisecond}
	c.Evaluate(0, hot)
	c.Evaluate(10*time.Millisecond, calm) // resets the up streak
	if d, _ := c.Evaluate(20*time.Millisecond, hot); d != 0 {
		t.Fatalf("streak survived a calm sample (delta %d)", d)
	}
}

func TestCooldownSuppresses(t *testing.T) {
	c := newTest(t, nil)
	hot := Signals{Serving: 2, Util: 0.9}
	c.Evaluate(0, hot)
	if d, _ := c.Evaluate(time.Millisecond, hot); d != 1 {
		t.Fatal("expected scale-up")
	}
	if d, reason := c.Evaluate(2*time.Millisecond, Signals{Serving: 3, Util: 0.9}); d != 0 || reason != "cooldown" {
		t.Fatalf("cooldown not enforced (delta %d, reason %q)", d, reason)
	}
}

func TestFiringDoublesStep(t *testing.T) {
	c := newTest(t, nil)
	paged := Signals{Serving: 2, Util: 0.9, Firing: 1}
	c.Evaluate(0, paged)
	if d, reason := c.Evaluate(time.Millisecond, paged); d != 2 || !strings.Contains(reason, "firing") {
		t.Fatalf("emergency step = %d (%q), want 2", d, reason)
	}
}

func TestClampAtMax(t *testing.T) {
	c := newTest(t, func(cfg *Config) { cfg.Max = 3 })
	paged := Signals{Serving: 2, Util: 0.9, Firing: 1}
	c.Evaluate(0, paged)
	if d, _ := c.Evaluate(time.Millisecond, paged); d != 1 {
		t.Fatalf("delta %d breaches Max", d)
	}
	at := Signals{Serving: 3, Util: 0.95, Firing: 2}
	c.Evaluate(300*time.Millisecond, at)
	if d, _ := c.Evaluate(301*time.Millisecond, at); d != 0 {
		t.Fatalf("scaled past Max (delta %d)", d)
	}
}

func TestScaleDownLazyAndClamped(t *testing.T) {
	c := newTest(t, func(cfg *Config) { cfg.Min = 2; cfg.DownStreak = 3 })
	idle := Signals{Serving: 3, Util: 0.1, P99: 2 * time.Millisecond}
	for i := 0; i < 2; i++ {
		if d, _ := c.Evaluate(time.Duration(i)*10*time.Millisecond, idle); d != 0 {
			t.Fatalf("drained before the streak completed")
		}
	}
	if d, _ := c.Evaluate(30*time.Millisecond, idle); d != -1 {
		t.Fatal("expected a drain after the streak")
	}
	// At Min nothing more drains, however long the idle streak.
	atMin := Signals{Serving: 2, Util: 0.05, P99: time.Millisecond}
	for i := 0; i < 10; i++ {
		if d, _ := c.Evaluate(time.Second+time.Duration(i)*50*time.Millisecond, atMin); d != 0 {
			t.Fatalf("drained below Min (delta %d)", d)
		}
	}
}

func TestLatencyBoundClusterNotDrained(t *testing.T) {
	c := newTest(t, nil)
	// CPUs idle but latency near target: must not count toward scale-down.
	slow := Signals{Serving: 4, Util: 0.1, P99: 25 * time.Millisecond}
	for i := 0; i < 20; i++ {
		if d, _ := c.Evaluate(time.Duration(i)*50*time.Millisecond, slow); d != 0 {
			t.Fatalf("drained a latency-bound cluster (delta %d)", d)
		}
	}
}

func TestEventLogDeterministic(t *testing.T) {
	run := func() string {
		c := newTest(t, nil)
		sig := func(i int) Signals {
			switch {
			case i < 10:
				return Signals{Serving: 1, Util: 0.9, P99: 40 * time.Millisecond}
			case i < 30:
				return Signals{Serving: 3, Util: 0.5, P99: 10 * time.Millisecond}
			default:
				return Signals{Serving: 3, Util: 0.1, P99: 2 * time.Millisecond}
			}
		}
		serving := 1
		for i := 0; i < 60; i++ {
			s := sig(i)
			s.Serving = serving
			d, _ := c.Evaluate(time.Duration(i)*50*time.Millisecond, s)
			serving += d
		}
		return RenderEvents(c.Events())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("event logs differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "SCALE +") || !strings.Contains(a, "SCALE -") {
		t.Fatalf("expected both directions in the log:\n%s", a)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Min = 0 },
		func(c *Config) { c.Max = c.Min - 1 },
		func(c *Config) { c.TargetP99 = 0 },
		func(c *Config) { c.DownUtil = c.UpUtil },
		func(c *Config) { c.UpStreak = 0 },
	}
	for i, tweak := range bad {
		cfg := testConfig()
		tweak(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
