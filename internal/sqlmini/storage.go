package sqlmini

import "slices"

// This file holds the two structure-shared containers a Table and its
// published tableViews are made of: rowStore (the rows) and pkIndex
// (primary key -> row position). Both are persistent in the functional
// sense: every mutator returns a new value that shares all untouched
// nodes with the old one, and nothing an earlier value can reach is ever
// written. A committed write therefore copies what it touches — the
// vectors of the columns it assigns in one chunk and the spine, one pk
// shard and its two directory nodes — and not the table. view.go states
// the sharing rules these types rely on.

// rowChunkLen is the number of rows in a sealed chunk: a numeric column
// of one chunk is an 8 KiB vector. A one-row UPDATE of k columns copies
// those k vectors, the chunk's vector headers and the spine (one pointer
// per chunk); 1024 keeps the three comparable up to about a million
// rows, so the copy stays flat across the table sizes in use.
const rowChunkLen = 1024

// nullMap marks the NULL positions of one column vector.
type nullMap [rowChunkLen / 64]uint64

func (m *nullMap) has(i int) bool { return m[i>>6]>>(uint(i)&63)&1 != 0 }

// colVec is one column of a sealed chunk: rowChunkLen values in the one
// slice the column's declared type selects (none for a column declared
// without a type, which holds only NULLs). A stored value is NULL or of
// exactly that type (coerce), so nothing else is kept per value. nulls
// is nil while the vector holds no NULL; the element under a NULL is
// zero.
//
//qcpa:published a sealed vector is shared by every chunk version, table version and view cut after it; replace copies before writing
type colVec struct {
	kind   Kind
	ints   []int64
	floats []float64
	strs   []string
	nulls  *nullMap
}

// vecBuilder is a colVec still being built, the only form a vector is
// written in: seal and colVec.with fill one and convert it to the colVec
// they hand out, after which nothing writes it.
type vecBuilder colVec

func newVecBuilder(kind Kind) *vecBuilder {
	b := &vecBuilder{kind: kind}
	switch kind {
	case KindInt:
		b.ints = make([]int64, rowChunkLen)
	case KindFloat:
		b.floats = make([]float64, rowChunkLen)
	case KindText:
		b.strs = make([]string, rowChunkLen)
	}
	return b
}

// set stores val, already of the vector's kind or NULL, as element i.
// The null map appears with the first NULL and goes with the last.
func (b *vecBuilder) set(i int, val Value) {
	if val.K == KindNull {
		if b.nulls == nil {
			b.nulls = new(nullMap)
		}
		b.nulls[i>>6] |= 1 << (uint(i) & 63)
		val = Value{}
	} else if b.nulls != nil && b.nulls.has(i) {
		b.nulls[i>>6] &^= 1 << (uint(i) & 63)
		if *b.nulls == (nullMap{}) {
			b.nulls = nil
		}
	}
	switch b.kind {
	case KindInt:
		b.ints[i] = val.I
	case KindFloat:
		b.floats[i] = val.F
	case KindText:
		b.strs[i] = val.S
	}
}

// get returns element i as a Value.
func (v *colVec) get(i int) Value {
	if v.nulls != nil && v.nulls.has(i) {
		return Null
	}
	switch v.kind {
	case KindInt:
		return Value{K: KindInt, I: v.ints[i]}
	case KindFloat:
		return Value{K: KindFloat, F: v.floats[i]}
	case KindText:
		return Value{K: KindText, S: v.strs[i]}
	}
	return Null
}

// with returns a copy of the vector holding rows[k][col] at position
// idxs[k] of the chunk; it shares nothing with the receiver.
func (v *colVec) with(idxs []int, rows []Row, col int) colVec {
	b := &vecBuilder{kind: v.kind, ints: slices.Clone(v.ints), floats: slices.Clone(v.floats), strs: slices.Clone(v.strs)}
	if v.nulls != nil {
		m := *v.nulls
		b.nulls = &m
	}
	for k, i := range idxs {
		b.set(i%rowChunkLen, rows[k][col])
	}
	return colVec(*b)
}

// rowChunk is a sealed run of exactly rowChunkLen rows, column-major:
// one vector per declared column. A scan that reads three columns of a
// wide table touches three vectors, and a numeric vector holds no
// pointer for the collector to follow.
//
//qcpa:published sealed chunks are shared by every table version and view cut after them; replace copies the header and the written vectors
type rowChunk struct {
	cols []colVec
}

// row materialises row i of the chunk.
func (c *rowChunk) row(i int) Row {
	r := make(Row, len(c.cols))
	for col := range c.cols {
		r[col] = c.cols[col].get(i)
	}
	return r
}

// rowStore holds a table's rows in position order: full sealed chunks
// behind a spine, then a row-major tail of fewer than rowChunkLen rows.
// A table smaller than one chunk is just its tail. kinds are the
// declared column types, which a sealed chunk's vectors take.
//
// A rowStore value is copied into every tableView. Two slices in it may
// share backing arrays with later versions: append writes the spine and
// the tail only beyond the lengths every earlier copy was cut with, so
// readers — bounded by their own lengths — never see those writes. The
// Rows in the tail are the store's own and never written once appended.
type rowStore struct {
	kinds  []Kind
	chunks []*rowChunk
	tail   []Row
}

func newRowStore(cols []Column) rowStore {
	kinds := make([]Kind, len(cols))
	for i, c := range cols {
		kinds[i] = c.Type
	}
	return rowStore{kinds: kinds}
}

func (s *rowStore) len() int { return len(s.chunks)*rowChunkLen + len(s.tail) }

// cursor names one row of a store: a sealed chunk and an offset in it,
// or a row-major Row (a tail row; a row a statement built). It is what
// a bound column reads through, so reaching a row costs no copy and
// reading one of its columns touches that column's vector alone.
type cursor struct {
	chunk *rowChunk // nil: the row is row
	off   int
	row   Row
}

// value returns column col of the row.
func (c *cursor) value(col int) Value {
	if c.chunk != nil {
		return c.chunk.cols[col].get(c.off)
	}
	return c.row[col]
}

// num returns column col — declared INT or FLOAT — as a float64,
// whether it is an integer, and false for ok when it is NULL.
func (c *cursor) num(col int) (f float64, isInt, ok bool) {
	if c.chunk == nil {
		v := c.row[col]
		f, ok = v.AsFloat()
		return f, v.K == KindInt, ok
	}
	v := &c.chunk.cols[col]
	if v.nulls != nil && v.nulls.has(c.off) {
		return 0, false, false
	}
	if v.kind == KindInt {
		return float64(v.ints[c.off]), true, true
	}
	return v.floats[c.off], false, true
}

// int returns column col — declared INT — and false when it is NULL.
func (c *cursor) int(col int) (int64, bool) {
	if c.chunk == nil {
		v := c.row[col]
		return v.I, v.K == KindInt
	}
	v := &c.chunk.cols[col]
	if v.nulls != nil && v.nulls.has(c.off) {
		return 0, false
	}
	return v.ints[c.off], true
}

// seek points c at the row at position i.
func (s *rowStore) seek(c *cursor, i int) {
	if ci := i / rowChunkLen; ci < len(s.chunks) {
		c.chunk, c.off = s.chunks[ci], i%rowChunkLen
		return
	}
	c.chunk, c.row = nil, s.tail[i-len(s.chunks)*rowChunkLen]
}

// value returns column col of the row at position i.
func (s *rowStore) value(i, col int) Value {
	if ci := i / rowChunkLen; ci < len(s.chunks) {
		return s.chunks[ci].cols[col].get(i % rowChunkLen)
	}
	return s.tail[i-len(s.chunks)*rowChunkLen][col]
}

// int returns column col — declared INT — of the row at position i, and
// false when it is NULL.
func (s *rowStore) int(i, col int) (int64, bool) {
	var c cursor
	s.seek(&c, i)
	return c.int(col)
}

// at returns the row at position i as a Row of the caller's own.
func (s *rowStore) at(i int) Row {
	if ci := i / rowChunkLen; ci < len(s.chunks) {
		return s.chunks[ci].row(i % rowChunkLen)
	}
	return slices.Clone(s.tail[i-len(s.chunks)*rowChunkLen])
}

// rows materialises the rows at positions [from, to), cut from one
// slab; a sealed chunk's share of them is filled a vector at a time.
func (s *rowStore) rows(from, to int) []Row {
	w := len(s.kinds)
	out, slab := make([]Row, to-from), make([]Value, (to-from)*w)
	for i := range out {
		out[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	sealed := len(s.chunks) * rowChunkLen
	for at := from; at < min(to, sealed); {
		c, lo := s.chunks[at/rowChunkLen], at%rowChunkLen
		hi := min(rowChunkLen, lo+to-at)
		for col := range c.cols {
			v := &c.cols[col]
			for i := lo; i < hi; i++ {
				out[at-from+i-lo][col] = v.get(i)
			}
		}
		at += hi - lo
	}
	for at := max(from, sealed); at < to; at++ {
		copy(out[at-from], s.tail[at-sealed])
	}
	return out
}

// each calls f with column col of every row, in position order.
func (s *rowStore) each(col int, f func(pos int, v Value)) {
	pos := 0
	for _, c := range s.chunks {
		v := &c.cols[col]
		for i := 0; i < rowChunkLen; i++ {
			f(pos, v.get(i))
			pos++
		}
	}
	for _, r := range s.tail {
		f(pos, r[col])
		pos++
	}
}

// append returns the store extended by rows, in order; every value is
// coerced to its column's type on the way in, which the caller has
// checked it can be. The rows themselves are only read: a sealed chunk
// copies the values into its vectors and the tail takes a copy of the
// row. It fills the tail in place (beyond every earlier copy's length,
// see rowStore) and seals it into a chunk whenever it reaches
// rowChunkLen; whole chunks' worth of input go straight into new
// chunks. Only the newest version of a store may be appended to — a
// Table replaces its store with the result, so its history never forks.
func (s rowStore) append(rows []Row) rowStore {
	for len(rows) > 0 {
		if len(s.tail) == 0 && len(rows) >= rowChunkLen {
			s.seal(rows[:rowChunkLen])
			rows = rows[rowChunkLen:]
			continue
		}
		w, k := len(s.kinds), min(rowChunkLen-len(s.tail), len(rows))
		slab := make([]Value, k*w)
		for i, r := range rows[:k] {
			own := slab[i*w : (i+1)*w : (i+1)*w]
			for col, v := range r {
				own[col], _ = coerce(v, s.kinds[col])
			}
			s.tail = append(s.tail, own)
		}
		rows = rows[k:]
		if len(s.tail) == rowChunkLen {
			s.seal(s.tail)
			s.tail = nil
		}
	}
	return s
}

// seal adds a chunk holding the rowChunkLen rows in full, coerced. It
// reads the rows once, in order, and fills every vector as it goes.
func (s *rowStore) seal(full []Row) {
	bs := make([]vecBuilder, len(s.kinds))
	for col, kind := range s.kinds {
		bs[col] = *newVecBuilder(kind)
	}
	for i, r := range full {
		for col := range bs {
			val := r[col]
			if val.K != bs[col].kind {
				val, _ = coerce(val, bs[col].kind)
			}
			bs[col].set(i, val)
		}
	}
	cols := make([]colVec, len(bs))
	for col := range bs {
		cols[col] = colVec(bs[col])
	}
	s.chunks = append(s.chunks, &rowChunk{cols: cols})
}

// replace returns the store with rows[k]'s values of the columns cols
// at position idxs[k]; the rows hold their column types already, are the
// caller's to give away, and equal the stored ones in every other
// column. idxs is strictly ascending. The spine, every touched chunk's
// header and its vectors of cols (or the tail's row headers) are copied
// once; everything else — every other vector — is shared with the
// receiver.
func (s rowStore) replace(idxs []int, rows []Row, cols []int) rowStore {
	if len(idxs) == 0 {
		return s
	}
	sealed := len(s.chunks) * rowChunkLen
	out := s
	if idxs[0] < sealed {
		out.chunks = slices.Clone(s.chunks)
	}
	if idxs[len(idxs)-1] >= sealed {
		// Keep the capacity: the next INSERT appends without regrowing.
		out.tail = make([]Row, len(s.tail), cap(s.tail))
		copy(out.tail, s.tail)
	}
	for k := 0; k < len(idxs); {
		i := idxs[k]
		if i >= sealed {
			out.tail[i-sealed] = rows[k]
			k++
			continue
		}
		ci, end := i/rowChunkLen, k+1
		for end < len(idxs) && idxs[end] < (ci+1)*rowChunkLen {
			end++
		}
		out.chunks[ci] = s.chunks[ci].with(idxs[k:end], rows[k:end], cols)
		k = end
	}
	return out
}

// with returns a copy of the chunk that holds rows[k]'s values of the
// columns cols at position idxs[k]: new vectors for those columns, the
// receiver's own for the others.
func (c *rowChunk) with(idxs []int, rows []Row, cols []int) *rowChunk {
	vecs := slices.Clone(c.cols)
	for _, col := range cols {
		vecs[col] = c.cols[col].with(idxs, rows, col)
	}
	return &rowChunk{cols: vecs}
}

// pkFan is the fan-out of each of the pk index's two directory levels:
// pkFan*pkFan shards. A single-key write copies one root, one directory
// (pkFan pointers each) and one shard of about rows/(pkFan*pkFan) keys.
const pkFan = 64

// pkDir is the second directory level: pkFan shards, each a plain map
// from a key's appendKey rendering to row position (nil when empty).
//
//qcpa:published directories and the shard maps they own are shared by every index version and view cut after them
type pkDir [pkFan]map[string]int

// pkRoot is the first directory level.
//
//qcpa:published shared by every index version and view cut after it
type pkRoot [pkFan]*pkDir

// pkIndex maps a primary key, rendered by appendKey, to its row
// position. The zero value is the empty index.
type pkIndex struct {
	root *pkRoot
}

// pkSlot returns a key's directory and shard number: the low bits of
// FNV-1a over the key, the bits above them folded in (FNV's lowest bits
// mix least).
func pkSlot(key []byte) (int, int) {
	h := fnvAdd(fnvOffset64, key)
	h ^= h >> 16
	return int(h % pkFan), int(h / pkFan % pkFan)
}

// shard returns the shard at slot (a, b); nil when nothing is in it.
func (p pkIndex) shard(a, b int) map[string]int {
	if p.root == nil || p.root[a] == nil {
		return nil
	}
	return p.root[a][b]
}

// find returns v's row position. It renders v's key on the stack and
// allocates nothing, which is what a join step probing once per prefix
// tuple needs.
func (p pkIndex) find(v Value) (int, bool) {
	var buf [32]byte
	key := appendKey(buf[:0], v)
	i, ok := p.shard(pkSlot(key))[string(key)]
	return i, ok
}

// set returns the index with key mapped to idx.
func (p pkIndex) set(key string, idx int) pkIndex { return p.with(key, idx, true) }

// del returns the index without key.
func (p pkIndex) del(key string) pkIndex { return p.with(key, 0, false) }

// with path-copies the root, the directory and the shard key falls in.
func (p pkIndex) with(key string, idx int, present bool) pkIndex {
	a, b := pkSlot([]byte(key))
	root, dir := new(pkRoot), new(pkDir)
	var old map[string]int
	if p.root != nil {
		*root = *p.root
		if d := p.root[a]; d != nil {
			*dir = *d
			old = d[b]
		}
	}
	shard := make(map[string]int, len(old)+1)
	for k, v := range old {
		if k != key {
			shard[k] = v
		}
	}
	if present {
		shard[key] = idx
	}
	dir[b] = shard
	root[a] = dir
	return pkIndex{root}
}

// insertAll returns the index with keys[k] mapped to base+k for every
// k, in order. It stops at the first key that is already present — in
// the receiver or earlier in keys — and returns that position (len(keys)
// when all went in); the keys before it are in the result. Each touched
// directory is copied once and each touched shard once, into a map
// sized for what it will hold, so a bulk load pays no rehash and a
// small batch into a large table copies only the shards it lands in.
func (p pkIndex) insertAll(keys []string, base int) (pkIndex, int) {
	if len(keys) == 1 {
		if _, dup := p.shard(pkSlot([]byte(keys[0])))[keys[0]]; dup {
			return p, 0
		}
		return p.set(keys[0], base), 1
	}
	slots := make([]uint16, len(keys))
	var incoming [pkFan * pkFan]int32 // keys per shard; -1 once the shard is copied
	for k, key := range keys {
		a, b := pkSlot([]byte(key))
		slots[k] = uint16(a*pkFan + b)
		incoming[slots[k]]++
	}
	root := new(pkRoot)
	if p.root != nil {
		*root = *p.root
	}
	var dirCopied [pkFan]bool
	for k, key := range keys {
		a, b := int(slots[k])/pkFan, int(slots[k])%pkFan
		if !dirCopied[a] {
			dir := new(pkDir)
			if root[a] != nil {
				*dir = *root[a]
			}
			root[a] = dir
			dirCopied[a] = true
		}
		shard := root[a][b]
		if n := incoming[slots[k]]; n >= 0 {
			fresh := make(map[string]int, len(shard)+int(n))
			for ok, ov := range shard {
				fresh[ok] = ov
			}
			shard = fresh
			root[a][b] = shard
			incoming[slots[k]] = -1
		}
		if _, dup := shard[key]; dup {
			return pkIndex{root}, k
		}
		shard[key] = base + k
	}
	return pkIndex{root}, len(keys)
}
