package heat

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"hopsfscl/internal/trace"
)

// Config shapes a Collector.
type Config struct {
	// TopN is how many rows reports and the topk_share gauges cover
	// (default 10).
	TopN int
}

const (
	// depths is how many path-prefix levels get their own subtree sketch:
	// depth 1 tracks "/proj", depth 2 "/proj/ds", and so on (the evaluation
	// namespace is three levels deep).
	depths = 3
	// sketchK is the per-sketch counter capacity: any key with true
	// frequency above total/sketchK is guaranteed to be tracked.
	sketchK = 64
	// decayWindow is the decay half-life: all counts halve every
	// decayWindow of virtual time (matching the SLO sketch span scale).
	decayWindow = 2 * time.Second
	// PublishEvery is the gauge-refresh interval of the background
	// publisher (matching the flight recorder).
	PublishEvery = 50 * time.Millisecond
)

// DefaultConfig returns the evaluation heat-tracking parameters.
func DefaultConfig() Config {
	return Config{TopN: 10}
}

func (c Config) withDefaults() Config {
	if c.TopN <= 0 {
		c.TopN = DefaultConfig().TopN
	}
	return c
}

// familyGauges caches the registry handles published for one sketch family.
type familyGauges struct {
	top1, topk *trace.Gauge
}

// Collector owns one sketch per heat dimension and is the single
// attachment point for the instrumented layers: the namenode feeds path
// and inode touches, ndb feeds table and partition touches, and the
// tracer's op observer feeds per-op-class touches. All touch methods are
// nil-receiver-safe and allocation-conscious — touching an already-tracked
// key allocates nothing, so heat stays inside the grid-point allocation
// ceiling.
type Collector struct {
	cfg Config

	// subtrees[d-1] tracks path prefixes of depth d.
	subtrees []*TopK[string]
	inodes   *TopK[uint64]
	tables   *TopK[string]
	parts    *TopK[string]
	ops      *TopK[string]
	// shards tracks per-shard routing balance. nil until a multi-shard
	// router enables it (EnableShardFamily), so unsharded deployments
	// publish and snapshot exactly the historical family set.
	shards *TopK[string]

	// mu guards the partition-key cache and gauge handles; the sketches
	// lock themselves.
	mu sync.Mutex
	// partKeys caches preformatted "table#pNN" keys so the per-access
	// partition touch never formats.
	partKeys map[string][]string

	reg     *trace.Registry
	gauges  map[string]*familyGauges
	lastPub time.Duration
}

// NewCollector builds a collector publishing heat.* gauges into reg (nil
// skips gauges; sketches still run).
func NewCollector(cfg Config, reg *trace.Registry) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		cfg:      cfg,
		inodes:   NewTopK[uint64](sketchK, decayWindow),
		tables:   NewTopK[string](sketchK, decayWindow),
		parts:    NewTopK[string](sketchK, decayWindow),
		ops:      NewTopK[string](sketchK, decayWindow),
		partKeys: make(map[string][]string),
		reg:      reg,
		gauges:   make(map[string]*familyGauges),
	}
	for range depths {
		c.subtrees = append(c.subtrees, NewTopK[string](sketchK, decayWindow))
	}
	return c
}

// TouchPath attributes one operation to the path's enclosing subtrees:
// every prefix of up to depths components gets one touch. Prefixes are
// substrings of path, so the touch shares the caller's string backing and
// allocates nothing on the tracked-key fast path.
func (c *Collector) TouchPath(now time.Duration, path string) {
	if c == nil || len(path) < 2 || path[0] != '/' {
		return
	}
	depth := 0
	for i := 1; i <= len(path) && depth < len(c.subtrees); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		if i > 1 && path[i-1] != '/' { // skip empty components
			c.subtrees[depth].Touch(now, path[:i], 1)
			depth++
		}
	}
}

// TouchInode attributes one row access to an inode.
func (c *Collector) TouchInode(now time.Duration, id uint64) {
	if c == nil {
		return
	}
	c.inodes.Touch(now, id, 1)
}

// TouchPartition attributes one row access to a table and its partition.
func (c *Collector) TouchPartition(now time.Duration, table string, index int) {
	if c == nil {
		return
	}
	c.tables.Touch(now, table, 1)
	c.parts.Touch(now, c.partKey(table, index), 1)
}

// partKey returns the cached "table#pNN" key, formatting the table's key
// set once on first contact.
func (c *Collector) partKey(table string, index int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.partKeys[table]
	for i := len(keys); i <= index; i++ {
		keys = append(keys, fmt.Sprintf("%s#p%02d", table, i))
	}
	c.partKeys[table] = keys
	return keys[index]
}

// EnableShardFamily adds the "shard" key family: one key per shard,
// touched by the router at every sub-transaction begin, so shard-balance
// skew ranks alongside tables and partitions in hotspot reports. The
// family stays disabled (absent from Publish and Snapshot) until a
// multi-shard router calls this.
func (c *Collector) EnableShardFamily() {
	if c == nil || c.shards != nil {
		return
	}
	c.shards = NewTopK[string](sketchK, decayWindow)
}

// TouchShard attributes one routed sub-transaction to a shard key. The
// caller passes a cached key string ("shard0", ...), so the touch
// allocates nothing; a no-op until EnableShardFamily.
func (c *Collector) TouchShard(now time.Duration, key string) {
	if c == nil || c.shards == nil {
		return
	}
	c.shards.Touch(now, key, 1)
}

// ObserveOp is a trace.OpObserver feeding the op-class sketch: heat rides
// the same hook the SLO engine consumes.
func (c *Collector) ObserveOp(op string, end, _ time.Duration, _ bool) {
	if c == nil {
		return
	}
	c.ops.Touch(end, op, 1)
}

// Publish refreshes the heat.* gauges at virtual instant now:
// heat.<family>.top1_share and heat.<family>.topk_share per family (the
// subtree family is labeled per depth). A flight recorder keeping the
// "heat." prefix turns these into the heat timeline CSV.
func (c *Collector) Publish(now time.Duration) {
	if c == nil || c.reg == nil {
		return
	}
	c.mu.Lock()
	c.lastPub = now
	c.mu.Unlock()
	for d, sk := range c.subtrees {
		c.publishFamily("subtree.d"+strconv.Itoa(d+1), sk, now)
	}
	c.publishFamily("inode", c.inodes, now)
	c.publishFamily("table", c.tables, now)
	c.publishFamily("partition", c.parts, now)
	c.publishFamily("op", c.ops, now)
	if c.shards != nil {
		c.publishFamily("shard", c.shards, now)
	}
}

func (c *Collector) publishFamily(name string, sk sketchView, now time.Duration) {
	c.mu.Lock()
	g := c.gauges[name]
	if g == nil {
		g = &familyGauges{
			top1: c.reg.Gauge("heat." + name + ".top1_share"),
			topk: c.reg.Gauge("heat." + name + ".topk_share"),
		}
		c.gauges[name] = g
	}
	c.mu.Unlock()
	top1, topk := sk.shares(now, c.cfg.TopN)
	g.top1.Set(top1)
	g.topk.Set(topk)
}

// sketchView is the small query surface publishFamily and snapshots need,
// implemented by TopK over any key type.
type sketchView interface {
	shares(now time.Duration, n int) (top1, topk float64)
	rows(now time.Duration, n int) ([]Row, uint64, int)
}

// shares returns the decayed count share of the hottest key and of the
// hottest n keys.
func (t *TopK[K]) shares(now time.Duration, n int) (top1, topk float64) {
	top := t.Top(now, n)
	total := t.Total(now)
	if total == 0 || len(top) == 0 {
		return 0, 0
	}
	var sum uint64
	for _, c := range top {
		sum += c.Count
	}
	return float64(top[0].Count) / float64(total), float64(sum) / float64(total)
}

// rows renders the top-n keys as report rows.
func (t *TopK[K]) rows(now time.Duration, n int) ([]Row, uint64, int) {
	top := t.Top(now, n)
	total := t.Total(now)
	out := make([]Row, 0, len(top))
	for _, c := range top {
		share := 0.0
		if total > 0 {
			share = float64(c.Count) / float64(total)
		}
		out = append(out, Row{Key: keyString(c.Key), Count: c.Count, Err: c.Err, Share: share})
	}
	return out, total, t.Len()
}

func keyString(k any) string {
	switch v := k.(type) {
	case string:
		return v
	case uint64:
		return "inode:" + strconv.FormatUint(v, 10)
	default:
		return fmt.Sprint(v)
	}
}

// Row is one ranked key in a heat report.
type Row struct {
	Key string
	// Count is the decayed touch estimate; the true count lies in
	// [Count-Err, Count].
	Count uint64
	Err   uint64
	// Share is Count over the family's decayed total.
	Share float64
}

// Family is one sketch's ranking in a heat report.
type Family struct {
	// Name identifies the dimension: "subtree depth 2", "inode", "table",
	// "partition", "op".
	Name string
	// Total is the family's decayed touch total; Tracked is how many keys
	// the sketch currently holds.
	Total   uint64
	Tracked int
	Top     []Row
}

// Report is an immutable snapshot of every sketch's ranking at one
// virtual instant.
type Report struct {
	At       time.Duration
	Families []Family
}

// Snapshot captures the hottest keys of every family at virtual instant
// now, topN rows each (0 uses the configured TopN).
func (c *Collector) Snapshot(now time.Duration, topN int) *Report {
	if c == nil {
		return nil
	}
	if topN <= 0 {
		topN = c.cfg.TopN
	}
	rep := &Report{At: now}
	add := func(name string, sk sketchView) {
		top, total, tracked := sk.rows(now, topN)
		rep.Families = append(rep.Families, Family{Name: name, Total: total, Tracked: tracked, Top: top})
	}
	for d, sk := range c.subtrees {
		add("subtree depth "+strconv.Itoa(d+1), sk)
	}
	add("inode", c.inodes)
	add("table", c.tables)
	add("partition", c.parts)
	add("op", c.ops)
	if c.shards != nil {
		add("shard", c.shards)
	}
	return rep
}

// Rank returns the 1-based rank of key in the depth-d subtree family of
// the report (0 when untracked) and the row itself.
func (r *Report) Rank(family, key string) (int, Row) {
	if r == nil {
		return 0, Row{}
	}
	for _, f := range r.Families {
		if f.Name != family {
			continue
		}
		for i, row := range f.Top {
			if row.Key == key {
				return i + 1, row
			}
		}
	}
	return 0, Row{}
}

// Render formats the report as aligned text tables, one per family,
// deterministically.
func (r *Report) Render() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for fi, f := range r.Families {
		if fi > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "hottest %s (decayed touches %d, %d keys tracked):\n", f.Name, f.Total, f.Tracked)
		if len(f.Top) == 0 {
			b.WriteString("  (no touches in window)\n")
			continue
		}
		width := 4
		for _, row := range f.Top {
			if len(row.Key) > width {
				width = len(row.Key)
			}
		}
		fmt.Fprintf(&b, "  %4s  %-*s  %10s  %7s  %6s\n", "rank", width, "key", "touches", "share", "±err")
		for i, row := range f.Top {
			fmt.Fprintf(&b, "  %4d  %-*s  %10d  %6.1f%%  %6d\n", i+1, width, row.Key, row.Count, row.Share*100, row.Err)
		}
	}
	return b.String()
}

// WriteCSV renders the report as deterministic CSV rows:
// family,rank,key,touches,share,err.
func (r *Report) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	b.WriteString("family,rank,key,touches,share,err\n")
	for _, f := range r.Families {
		for i, row := range f.Top {
			fmt.Fprintf(&b, "%s,%d,%s,%d,%.4f,%d\n", csvField(f.Name), i+1, csvField(row.Key), row.Count, row.Share, row.Err)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
}
