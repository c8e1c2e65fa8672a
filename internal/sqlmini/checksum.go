package sqlmini

import (
	"hash/fnv"
	"math"
	"strconv"
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

// FNV-1a, 64 bit: hash/fnv's constants, inlined so that hashing a value
// allocates neither a hash.Hash64 nor a key string. It is the
// checksum's hash of a rendered key.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// fnvAddValue folds one value of a row into the row's hash: its key
// (appendSumKey), then 0xff.
func fnvAddValue(h uint64, v Value) uint64 {
	var buf [32]byte
	return (fnvAdd(h, appendSumKey(buf[:0], v)) ^ 0xff) * fnvPrime64
}

// appendSumKey appends the form of v's hkey the checksum hashes: NULL as
// a 0 byte, an integer key as 'i' and its decimal digits, any other
// float as 'f' and its 'b' formatting, text as 's' and its bytes. The
// digests TestTableChecksumPinned holds are taken over this form.
func appendSumKey(b []byte, v Value) []byte {
	k := keyOf(v)
	switch k.kind {
	case KindInt:
		return strconv.AppendInt(append(b, 'i'), int64(k.num), 10)
	case KindFloat:
		return strconv.AppendFloat(append(b, 'f'), math.Float64frombits(k.num), 'b', -1, 64)
	case KindText:
		return append(append(b, 's'), k.str...)
	}
	return append(b, 0)
}

// tableChecksumLocked hashes schema then rows; caller holds e.mu. A
// sealed chunk is hashed a column at a time, every row's running hash
// taking that column's value in turn, which gives each row the hash a
// walk along it would.
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
	var rows uint64 // row hashes combine by modular addition: order-independent
	for _, c := range t.rows.chunks {
		var hs [rowChunkLen]uint64
		for i := range hs {
			hs[i] = fnvOffset64
		}
		for col := range c.cols {
			v := &c.cols[col]
			for i := range hs {
				hs[i] = fnvAddValue(hs[i], v.get(i))
			}
		}
		for _, rh := range hs {
			rows += rh
		}
	}
	for _, r := range t.rows.tail {
		rh := uint64(fnvOffset64)
		for _, v := range r {
			rh = fnvAddValue(rh, v)
		}
		rows += rh
	}
	// Mix in the row count so {r, r} vs {r} with a colliding sum still
	// differ, and combine with the schema hash.
	return sum ^ rows ^ (uint64(t.rows.len()) * 0x9e3779b97f4a7c15)
}
