package namenode

import (
	"strconv"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
)

// Quota support, modeled on HopsFS's asynchronous quota system: each quota'd
// directory owns one authoritative limit row plus append-only usage-update
// rows in the quotas table, all partitioned by the directory's inode id.
// Mutations charge usage by inserting a uniquely keyed update row per quota'd
// ancestor instead of read-modify-writing a single hot counter row, so a busy
// quota'd directory never serializes its subtree's writers on one row lock.
// Usage reads fold the update rows on demand (HopsFS folds them in the
// background). Quotas here are advisory — recorded and queryable, not
// enforced at create time — which is all the write-path experiments need.
//
// Rename deliberately does not migrate usage between quota'd directories:
// moving a subtree across a quota boundary leaves the old charges in place,
// matching the level of fidelity of the rest of the model (HopsFS recomputes
// asynchronously; nothing downstream consumes cross-boundary moves).

// Row keys within a directory's quotas partition.
const (
	// smallFileKey is the single data row of an inline small file, in the
	// smallfiles table partition keyed by the file's own inode id.
	smallFileKey = "d"
	// quotaRecordKey is the authoritative QuotaRecord row of a directory.
	quotaRecordKey = "q"
	// quotaUpdatePrefix prefixes every QuotaUpdate row; the suffix encodes
	// the charging operation kind and subject inode for uniqueness.
	quotaUpdatePrefix = "u/"
)

// quotaUpdateKey builds the unique row key of one usage charge: kind is "c"
// (create) or "d" (delete), ino the inode the charge is about.
func quotaUpdateKey(kind string, ino uint64) string {
	return quotaUpdatePrefix + kind + strconv.FormatUint(ino, 10)
}

// quotaCharges appends to items one usage-update row per quota'd ancestor in
// chain. Every quota'd directory on the resolved path is charged — not just
// the nearest — so each quota's usage stays the true total of its whole
// subtree. The rows ride the caller's WriteBatch; an unquota'd path appends
// nothing and costs nothing.
func (nn *NameNode) quotaCharges(items []ndb.BatchWrite, chain []*Inode, kind string, ino uint64, ns, ss int64) []ndb.BatchWrite {
	for _, anc := range chain {
		if anc.QuotaNS == 0 && anc.QuotaSS == 0 {
			continue
		}
		table, pk := partOf(nn.ns.quotas, anc.ID)
		items = append(items, ndb.BatchWrite{
			Table:   table,
			PartKey: pk,
			Key:     quotaUpdateKey(kind, ino),
			Val:     &QuotaUpdate{NS: ns, SS: ss},
		})
	}
	return items
}

// SetQuota sets (or, with both limits zero, clears) a directory's namespace
// and storage-space quota. The directory inode (carrying the limit copies
// resolution reads) and the authoritative quota record update as one batched
// write.
func (nn *NameNode) SetQuota(p *sim.Proc, path string, nsQuota, ssQuota int64) error {
	return nn.updateInode(p, path, inodeEdit{kind: editQuota, nsQuota: nsQuota, ssQuota: ssQuota})
}

// quotaRecordWrite is the batched-write item storing the directory dir's
// authoritative quota record, or deleting it when both limits are zero.
func (nn *NameNode) quotaRecordWrite(dir uint64, nsQuota, ssQuota int64) ndb.BatchWrite {
	quotas, pk := partOf(nn.ns.quotas, dir)
	row := ndb.BatchWrite{Table: quotas, PartKey: pk, Key: quotaRecordKey}
	if nsQuota == 0 && ssQuota == 0 {
		row.Del = true
	} else {
		row.Val = &QuotaRecord{NS: nsQuota, SS: ssQuota}
	}
	return row
}

// Quota returns a directory's quota limits and accumulated usage: the
// authoritative record plus the fold of its pending update rows, both served
// from the directory's own quotas partition (one partition-pruned scan).
func (nn *NameNode) Quota(p *sim.Proc, path string) (QuotaInfo, error) {
	var info QuotaInfo
	err := nn.op(p, path, opRules{children: true}, func(tx ndb.Tx, fp fsPath, sc *opScratch) error {
		info = QuotaInfo{}
		chain, err := nn.resolveChain(tx, sc, fp, 0)
		if err != nil {
			return err
		}
		dir := chain[len(chain)-1]
		if !dir.Dir {
			return ErrNotDir
		}
		quotas, pk := partOf(nn.ns.quotas, dir.ID)
		vals, err := tx.ReadBatch([]ndb.BatchGet{{Table: quotas, PartKey: pk, Key: quotaRecordKey}})
		if err != nil {
			return err
		}
		if rec, ok := vals[0].Val.(*QuotaRecord); ok {
			info.NS, info.SS = rec.NS, rec.SS
		}
		kvs, err := tx.ScanBatch([]ndb.BatchScan{{Table: quotas, PartKey: pk, Prefix: quotaUpdatePrefix}})
		if err != nil {
			return err
		}
		for _, kv := range kvs[0] {
			if upd, ok := kv.Val.(*QuotaUpdate); ok {
				info.UsedNS += upd.NS
				info.UsedSS += upd.SS
			}
		}
		return nil
	})
	if err != nil {
		return QuotaInfo{}, err
	}
	return info, nil
}
