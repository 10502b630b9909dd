package shard

import "hopsfscl/internal/ndb"

// One-row operations for tests, each a batch of one — the way the metadata
// layer issues them.

func readCommitted(tx ndb.Tx, table *ndb.Table, pk, key string) (ndb.Value, bool, error) {
	vals, err := tx.ReadBatch([]ndb.BatchGet{{Table: table, PartKey: pk, Key: key}})
	if err != nil {
		return nil, false, err
	}
	return vals[0].Val, vals[0].OK, nil
}

func put(tx ndb.Tx, table *ndb.Table, pk, key string, val ndb.Value) error {
	return tx.WriteBatch([]ndb.BatchWrite{{Table: table, PartKey: pk, Key: key, Val: val}})
}
