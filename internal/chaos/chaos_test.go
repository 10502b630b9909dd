package chaos

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/core"
	"hopsfscl/internal/namenode"
	"hopsfscl/internal/nsmodel"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/workload"
)

// TestChaosCampaign sweeps seeded random campaigns over HopsFS-CL (3,3)
// and requires every one to finish with zero invariant violations and a
// history that nsmodel.Check linearizes. -short runs a reduced sweep.
func TestChaosCampaign(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmtSeed(seed), func(t *testing.T) {
			rep, err := RunCampaign(seed, CampaignOptions{
				Faults:      4,
				CampaignLen: 25 * time.Second,
				Engine:      Config{Clients: 4},
			})
			if err != nil {
				t.Fatalf("campaign: %v", err)
			}
			if len(rep.History) == 0 {
				t.Fatalf("campaign recorded no operations")
			}
			if rep.OK == 0 {
				t.Fatalf("campaign had no successful operation:\n%s", rep.Render())
			}
			if !rep.Clean() {
				t.Fatalf("campaign not clean:\n%s", rep.Render())
			}
		})
	}
}

func fmtSeed(seed int64) string {
	return "seed" + itoa(seed)
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestChaosDeterminism runs the same campaign twice and requires
// byte-identical reports — the property every other chaos test relies on
// for reproduction.
func TestChaosDeterminism(t *testing.T) {
	run := func() string {
		rep, err := RunCampaign(42, CampaignOptions{
			Faults:      3,
			CampaignLen: 20 * time.Second,
			Engine:      Config{Clients: 3},
		})
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		return rep.Render()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different reports:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestGenerateDeterminism checks the schedule generator alone: same
// deployment shape and seed must give the same schedule, and every
// degrading step must carry a later recovery step for the same target.
func TestGenerateDeterminism(t *testing.T) {
	rep1, err := RunCampaign(7, CampaignOptions{Faults: 5, CampaignLen: 25 * time.Second, Engine: Config{Clients: 2}})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	rep2, err := RunCampaign(7, CampaignOptions{Faults: 5, CampaignLen: 25 * time.Second, Engine: Config{Clients: 2}})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if rep1.Schedule.Render() != rep2.Schedule.Render() {
		t.Fatalf("generator not deterministic:\n%s\nvs\n%s", rep1.Schedule.Render(), rep2.Schedule.Render())
	}
	degrading := 0
	for _, st := range rep1.Schedule {
		if st.Kind.degrades() {
			degrading++
		} else {
			degrading--
		}
	}
	if degrading != 0 {
		t.Fatalf("schedule has unpaired degrading steps:\n%s", rep1.Schedule.Render())
	}
}

func TestParseScheduleRoundTrip(t *testing.T) {
	text := `
# the §V-F drill, as a schedule
at 5s fail-zone 2
at 12s recover-zone 2
at 18s partition 1 3
at 24s heal 1 3
at 30s kill-nn 2
at 34s restart-nn 2
at 36s crash-dn 4
at 40s rejoin-dn 4
at 42s slow-link 1 2 4
at 44s lossy-link 2 3 0.1
at 46s restore-link 1 2
at 47s restore-link 2 3
`
	sched, err := ParseSchedule(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(sched) != 12 {
		t.Fatalf("want 12 steps, got %d", len(sched))
	}
	again, err := ParseSchedule(sched.Render())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if sched.Render() != again.Render() {
		t.Fatalf("round trip changed the schedule:\n%s\nvs\n%s", sched.Render(), again.Render())
	}
	if sched[0].Kind != FaultFailZone || sched[0].Zone != 2 || sched[0].At != 5*time.Second {
		t.Fatalf("first step parsed wrong: %+v", sched[0])
	}
	if sched[8].Kind != FaultSlowLink || sched[8].Factor != 4 {
		t.Fatalf("slow-link parsed wrong: %+v", sched[8])
	}

	for _, bad := range badScheduleLines {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted a bad line", bad)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("ParseSchedule(%q) error lacks the line number: %v", bad, err)
		}
	}
}

var badScheduleLines = []string{
	"at 5s fail-zone",       // missing argument
	"after 5s fail-zone 2",  // bad keyword
	"at five fail-zone 2",   // bad duration
	"at 5s melt-the-rack 1", // unknown kind
	// Trailing fields are errors, per kind.
	"at 1s kill-nn 0 junk more",
	"at 1s crash-dn 4 1 2",
	"at 1s fail-zone 2 3",
	"at 1s heal 1 3 9",
	"at 1s slow-link 1 2 4 5",
	// Out-of-range numbers.
	"at 1s lossy-link 1 2 NaN",
	"at 1s lossy-link 1 2 7",
	"at 1s lossy-link 1 2 -0.1",
	"at 1s slow-link 1 2 -3",
	"at 1s slow-link 1 2 0",
	"at 1s slow-link 1 2 +Inf",
	"at -5s crash-dn 0",
}

// TestValidateRejectsOutOfRangeSteps covers schedules built in code rather
// than parsed: the engine refuses the same values ParseSchedule does.
func TestValidateRejectsOutOfRangeSteps(t *testing.T) {
	for _, st := range []Step{
		{At: time.Second, Kind: FaultLossyLink, Zone: 1, ZoneB: 2, Loss: math.NaN()},
		{At: time.Second, Kind: FaultLossyLink, Zone: 1, ZoneB: 2, Loss: 7},
		{At: time.Second, Kind: FaultSlowLink, Zone: 1, ZoneB: 2, Factor: -3},
		{At: -5 * time.Second, Kind: FaultCrashDN},
	} {
		if _, err := RunCampaign(1, CampaignOptions{Schedule: Schedule{st}}); err == nil {
			t.Errorf("RunCampaign accepted step %q", st)
		}
	}
}

// FuzzParseSchedule checks that ParseSchedule never panics and that every
// schedule it accepts survives Render → ParseSchedule → Render unchanged.
func FuzzParseSchedule(f *testing.F) {
	f.Add(DetectionSchedule().Render())
	f.Add("# drill\nat 5s fail-zone 2\nat 12s recover-zone 2 # back\nat 36s crash-dn 4 1\nat 44s lossy-link 2 3 0.1\n")
	f.Add("at 2s kill-nn 1\nat 1s restart-nn 1\nat 1s partition 1 3\n") // out of order, same instant
	for _, bad := range badScheduleLines {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, text string) {
		sched, err := ParseSchedule(text)
		if err != nil {
			return
		}
		for _, st := range sched {
			if err := st.checkRanges(); err != nil {
				t.Fatalf("accepted %v", err)
			}
		}
		rendered := sched.Render()
		again, err := ParseSchedule(rendered)
		if err != nil {
			t.Fatalf("rendered schedule does not parse: %v\n%s", err, rendered)
		}
		if got := again.Render(); got != rendered {
			t.Fatalf("render is not a fixed point:\n%s\nvs\n%s", rendered, got)
		}
	})
}

// TestCheckHistory judges one-file histories, answered with the client's
// own errors, as the engine judges a campaign: by nsmodel.Check through
// namenode.Outcome. An acked create a later stat misses, a stat that finds
// a deleted file, and one that finds a file whose delete lost its reply
// after a stat missed it are violations. So are two shapes a per-client
// checker once let pass: ErrExists for a create when the only create before
// it took no effect, and a stat that misses a file another client's create
// acked before the stat began.
func TestCheckHistory(t *testing.T) {
	type call struct {
		client int
		name   string
		err    error
	}
	judge := func(calls []call) error {
		ops := make([]nsmodel.Op, len(calls))
		for i, c := range calls {
			ops[i] = nsmodel.Op{Client: c.client, Name: c.name, Path: "/a",
				Invoke: time.Duration(2 * i), Return: time.Duration(2*i + 1), Err: c.err}
			if c.err == nil && c.name != "delete" {
				ops[i].Result = &namenode.Inode{ID: 2, Name: "a"}
			}
		}
		return nsmodel.Check(ops, namenode.Outcome, nsmodel.FirstRenameErr)
	}
	for _, c := range []struct {
		name  string
		calls []call
		ok    bool
	}{
		{"clean", []call{{0, "create", nil}, {0, "stat", nil}, {0, "delete", nil}, {0, "stat", namenode.ErrNotFound}}, true},
		{"acked write lost", []call{{0, "create", nil}, {0, "stat", namenode.ErrNotFound}}, false},
		{"stale read", []call{{0, "create", nil}, {0, "delete", nil}, {0, "stat", nil}}, false},
		{"lost ack resolved by ErrExists", []call{{0, "create", namenode.ErrRetriesExhausted}, {0, "create", namenode.ErrExists}, {0, "stat", nil}}, false},
		{"lost reply resolved by ErrExists", []call{{0, "create", namenode.ErrReplyLost}, {0, "create", namenode.ErrExists}, {0, "stat", nil}}, true},
		{"indeterminate delete", []call{{0, "create", nil}, {0, "delete", namenode.ErrReplyLost}, {0, "stat", namenode.ErrNotFound}, {0, "stat", nil}}, false},
		{"clients independent", []call{{0, "create", nil}, {1, "stat", namenode.ErrNotFound}}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := judge(c.calls); (err == nil) != c.ok {
				t.Errorf("Check = %v, want linearizable %v", err, c.ok)
			}
		})
	}
}

// TestEngineExplicitSchedule runs the paper's §V-F drill as an explicit
// schedule and checks the availability accounting comes out: the AZ
// failure must be visible as a fault mark with a measured MTTR, and the
// campaign must stay clean (the paper's claim: an AZ loss is survived
// without data loss).
func TestEngineExplicitSchedule(t *testing.T) {
	sched, err := ParseSchedule(`
at 4s  fail-zone 2
at 10s recover-zone 2
at 16s partition 1 3
at 21s heal 1 3
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rep, err := RunCampaign(3, CampaignOptions{Schedule: sched, Engine: Config{Clients: 4, Duration: 40 * time.Second}})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("drill not clean:\n%s", rep.Render())
	}
	if len(rep.MTTR) != 2 {
		t.Fatalf("want 2 MTTR entries (fail-zone, partition), got %d:\n%s", len(rep.MTTR), rep.Render())
	}
	for _, m := range rep.MTTR {
		if !m.Recovered {
			t.Fatalf("fault %v never recovered:\n%s", m.Step.Kind, rep.Render())
		}
	}
	out := rep.Render()
	for _, want := range []string{"chaos campaign", "timeline", "recovery", "unavailability"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestAuditorFlagsDirectoryWithBlocks plants a block list and a size on a
// directory's stored inode, as a write whose attach landed on a directory
// that took its file's name would leave them: the auditor names it, and
// nothing else.
func TestAuditorFlagsDirectoryWithBlocks(t *testing.T) {
	setup, _ := core.SetupByName("HopsFS-CL (3,3)")
	o := core.DefaultOptions(setup)
	o.MetadataServers = 1
	o.ClientsPerServer = 0
	o.Namespace = workload.NamespaceSpec{}
	d, err := core.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Env.Spawn("mkdir", func(p *sim.Proc) {
		if _, err := d.NS.NameNodes()[0].Mkdir(p, "/d", 0o755); err != nil {
			t.Error(err)
		}
	})
	d.Env.RunFor(time.Second)
	d.NS.ForEachInode(func(ino *namenode.Inode) {
		if ino.Name == "d" {
			ino.Size, ino.Blocks = 3<<20, []blocks.BlockID{7}
		}
	})
	var got []string
	for _, v := range NewAuditor(d).Check(d.Env.Now(), true, true) {
		got = append(got, v.Invariant)
	}
	if !slices.Equal(got, []string{"ns-dir-blocks"}) {
		t.Errorf("the audit found %v, want the directory with blocks alone", got)
	}
}
