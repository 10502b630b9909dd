package heat

import (
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/trace"
)

func TestCollectorTouchPathDepths(t *testing.T) {
	c := NewCollector(Config{}, nil)
	c.TouchPath(0, "/proj001/ds00/part-0001")
	c.TouchPath(0, "/proj001/ds00/part-0002")
	c.TouchPath(0, "/proj001/ds01/part-0001")
	c.TouchPath(0, "/proj002")

	rep := c.Snapshot(0, 10)
	if rank, row := rep.Rank("subtree depth 1", "/proj001"); rank != 1 || row.Count != 3 {
		t.Fatalf("depth-1 /proj001: rank %d count %d, want rank 1 count 3", rank, row.Count)
	}
	if rank, row := rep.Rank("subtree depth 1", "/proj002"); rank != 2 || row.Count != 1 {
		t.Fatalf("depth-1 /proj002: rank %d count %d, want rank 2 count 1", rank, row.Count)
	}
	if rank, row := rep.Rank("subtree depth 2", "/proj001/ds00"); rank != 1 || row.Count != 2 {
		t.Fatalf("depth-2 /proj001/ds00: rank %d count %d, want rank 1 count 2", rank, row.Count)
	}
	if rank, _ := rep.Rank("subtree depth 3", "/proj001/ds00/part-0001"); rank != 1 {
		t.Fatalf("depth-3 full path not ranked first (rank %d)", rank)
	}
}

func TestCollectorTouchPathIgnoresMalformed(t *testing.T) {
	c := NewCollector(Config{}, nil)
	c.TouchPath(0, "")
	c.TouchPath(0, "/")
	c.TouchPath(0, "relative/path")
	if got := c.Snapshot(0, 5).Families[0].Total; got != 0 {
		t.Fatalf("malformed paths counted: total %d", got)
	}
}

func TestCollectorPartitionKeysAndInodes(t *testing.T) {
	c := NewCollector(Config{}, nil)
	for i := 0; i < 4; i++ {
		c.TouchPartition(0, "inodes", 7)
	}
	c.TouchPartition(0, "inodes", 12)
	c.TouchPartition(0, "quotas", 7)
	c.TouchInode(0, 42)
	c.TouchInode(0, 42)
	c.TouchInode(0, 9)

	rep := c.Snapshot(0, 10)
	if rank, row := rep.Rank("partition", "inodes#p07"); rank != 1 || row.Count != 4 {
		t.Fatalf("inodes#p07: rank %d count %d, want rank 1 count 4", rank, row.Count)
	}
	if rank, row := rep.Rank("table", "inodes"); rank != 1 || row.Count != 5 {
		t.Fatalf("table inodes: rank %d count %d, want rank 1 count 5", rank, row.Count)
	}
	if rank, row := rep.Rank("inode", "inode:42"); rank != 1 || row.Count != 2 {
		t.Fatalf("inode:42: rank %d count %d, want rank 1 count 2", rank, row.Count)
	}
}

func TestCollectorPublishGauges(t *testing.T) {
	reg := trace.NewRegistry()
	c := NewCollector(Config{TopN: 2}, reg)
	c.TouchPath(0, "/hot/a")
	c.TouchPath(0, "/hot/b")
	c.TouchPath(0, "/hot/c")
	c.TouchPath(0, "/cold/x")
	c.ObserveOp("stat", 0, time.Millisecond, false)
	c.Publish(0)

	if got := reg.Gauge("heat.subtree.d1.top1_share").Value(); got != 0.75 {
		t.Fatalf("heat.subtree.d1.top1_share = %v, want 0.75", got)
	}
	if got := reg.Gauge("heat.subtree.d1.topk_share").Value(); got != 1 {
		t.Fatalf("heat.subtree.d1.topk_share = %v, want 1", got)
	}
	if got := reg.Gauge("heat.op.top1_share").Value(); got != 1 {
		t.Fatalf("heat.op.top1_share = %v, want 1", got)
	}
}

func TestCollectorTouchAllocationFree(t *testing.T) {
	c := NewCollector(Config{}, nil)
	path := "/proj001/ds00/part-0001"
	c.TouchPath(0, path)
	c.TouchPartition(0, "inodes", 3)
	c.TouchInode(0, 42)
	if allocs := testing.AllocsPerRun(500, func() { c.TouchPath(time.Millisecond, path) }); allocs > 0 {
		t.Fatalf("TouchPath of tracked prefixes allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() { c.TouchPartition(time.Millisecond, "inodes", 3) }); allocs > 0 {
		t.Fatalf("TouchPartition of a cached key allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() { c.TouchInode(time.Millisecond, 42) }); allocs > 0 {
		t.Fatalf("TouchInode of a tracked id allocates %.1f objects/op, want 0", allocs)
	}
}

func TestReportRenderAndCSV(t *testing.T) {
	c := NewCollector(Config{}, nil)
	c.TouchPath(0, "/hot/a")
	c.TouchPath(0, "/hot/b")
	c.TouchPath(0, "/cold/x")
	rep := c.Snapshot(0, 5)

	text := rep.Render()
	if !strings.Contains(text, "hottest subtree depth 1") || !strings.Contains(text, "/hot") {
		t.Fatalf("render missing expected content:\n%s", text)
	}
	var b strings.Builder
	if err := rep.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	csv := b.String()
	if !strings.HasPrefix(csv, "family,rank,key,touches,share,err\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "subtree depth 1,1,/hot,2,0.6667,0") {
		t.Fatalf("csv missing expected row:\n%s", csv)
	}
	// Same schedule twice must render byte-identically.
	c2 := NewCollector(Config{}, nil)
	c2.TouchPath(0, "/hot/a")
	c2.TouchPath(0, "/hot/b")
	c2.TouchPath(0, "/cold/x")
	if got := c2.Snapshot(0, 5).Render(); got != text {
		t.Fatalf("renders diverge:\n%s\n---\n%s", got, text)
	}
}
