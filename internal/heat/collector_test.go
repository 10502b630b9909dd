package heat

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCollectorTouchPathDepths(t *testing.T) {
	c := NewCollector()
	c.TouchPath(0, "/proj001/ds00/part-0001")
	c.TouchPath(0, "/proj001/ds00/part-0002")
	c.TouchPath(0, "/proj001/ds01/part-0001")
	c.TouchPath(0, "/proj002")

	rep := c.Snapshot(0)
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
	c := NewCollector()
	c.TouchPath(0, "")
	c.TouchPath(0, "/")
	c.TouchPath(0, "relative/path")
	if got := c.Snapshot(0).Families[0].Total; got != 0 {
		t.Fatalf("malformed paths counted: total %d", got)
	}
}

func TestCollectorPartitionKeysAndInodes(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 4; i++ {
		c.TouchPartition(0, "inodes", 7)
	}
	c.TouchPartition(0, "inodes", 12)
	c.TouchPartition(0, "quotas", 7)
	c.TouchInode(0, 42)
	c.TouchInode(0, 42)
	c.TouchInode(0, 9)

	rep := c.Snapshot(0)
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

func TestCollectorTouchAllocationFree(t *testing.T) {
	c := NewCollector()
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

func TestReportRender(t *testing.T) {
	c := NewCollector()
	c.TouchPath(0, "/hot/a")
	c.TouchPath(0, "/hot/b")
	c.TouchPath(0, "/cold/x")
	rep := c.Snapshot(0)

	text := rep.Render()
	if !strings.Contains(text, "hottest subtree depth 1") || !strings.Contains(text, "/hot") {
		t.Fatalf("render missing expected content:\n%s", text)
	}
	if rank, row := rep.Rank("subtree depth 1", "/hot"); rank != 1 || row.Count != 2 || row.Err != 0 || math.Abs(row.Share-2.0/3) > 1e-9 {
		t.Fatalf("/hot ranks %d with %+v, want first with 2 touches, share 2/3, no error", rank, row)
	}
	// Same schedule twice must render byte-identically.
	c2 := NewCollector()
	c2.TouchPath(0, "/hot/a")
	c2.TouchPath(0, "/hot/b")
	c2.TouchPath(0, "/cold/x")
	if got := c2.Snapshot(0).Render(); got != text {
		t.Fatalf("renders diverge:\n%s\n---\n%s", got, text)
	}
}
