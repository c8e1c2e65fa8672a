package sqlmini

import (
	"hash/fnv"
)

// TableChecksum returns an order-independent checksum of a table's
// schema and contents: each row hashes independently (FNV-1a over the
// canonical key forms of its values) and the row hashes combine by
// modular addition, so two replicas that hold the same set of rows in
// different physical order still agree. The cluster's recovery path
// compares these across replicas after a redo-log replay.
func (e *Engine) TableChecksum(name string) (uint64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return 0, unknownTableError(name)
	}
	return tableChecksumLocked(t), nil
}

// Checksums returns the checksum of each named table (all tables when
// names is nil), computed under one read lock so the result is a
// consistent point-in-time view of the engine.
func (e *Engine) Checksums(names []string) (map[string]uint64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if names == nil {
		names = make([]string, 0, len(e.tables))
		for n := range e.tables {
			names = append(names, n)
		}
	}
	out := make(map[string]uint64, len(names))
	for _, n := range names {
		t, ok := e.tables[n]
		if !ok {
			return nil, unknownTableError(n)
		}
		out[n] = tableChecksumLocked(t)
	}
	return out, nil
}

// tableChecksumLocked hashes schema then rows; caller holds e.mu.
func tableChecksumLocked(t *Table) uint64 {
	h := fnv.New64a()
	for _, c := range t.Cols {
		h.Write([]byte(c.Name))
		h.Write([]byte{byte(c.Type)})
		if c.PrimaryKey {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	sum := h.Sum64()
	var rows uint64
	for k := 0; k < t.rows.runs(); k++ {
		for _, r := range t.rows.run(k) {
			rh := fnv.New64a()
			for _, v := range r {
				rh.Write([]byte(v.key()))
				rh.Write([]byte{0xff})
			}
			rows += rh.Sum64() // modular addition: order-independent
		}
	}
	// Mix in the row count so {r, r} vs {r} with a colliding sum still
	// differ, and combine with the schema hash.
	return sum ^ rows ^ (uint64(t.rows.len()) * 0x9e3779b97f4a7c15)
}
