package ndb

// One-row operations for tests, each a batch of one — the way the metadata
// layer issues them.

func readCommitted(tx Tx, table *Table, pk, key string) (Value, bool, error) {
	return readLocked(tx, table, pk, key, 0)
}

func readLocked(tx Tx, table *Table, pk, key string, mode LockMode) (Value, bool, error) {
	vals, err := tx.ReadBatch([]BatchGet{{Table: table, PartKey: pk, Key: key, Lock: mode}})
	if err != nil {
		return nil, false, err
	}
	return vals[0].Val, vals[0].OK, nil
}

func scanPrefix(tx Tx, table *Table, pk, prefix string) ([]KV, error) {
	rows, err := tx.ScanBatch([]BatchScan{{Table: table, PartKey: pk, Prefix: prefix}})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

func put(tx Tx, table *Table, pk, key string, val Value) error {
	return tx.WriteBatch([]BatchWrite{{Table: table, PartKey: pk, Key: key, Val: val}})
}

func del(tx Tx, table *Table, pk, key string) error {
	return tx.WriteBatch([]BatchWrite{{Table: table, PartKey: pk, Key: key, Del: true}})
}
