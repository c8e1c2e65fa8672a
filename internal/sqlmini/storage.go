package sqlmini

import (
	"hash/maphash"
	"slices"
)

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
// A TEXT vector whose elements take at most dictMax distinct strings
// also carries a chunk-local dictionary: dict holds each string once and
// codes[i] is element i's place in it (0 under a NULL). strs is kept
// beside it, so a reader of values reads them as before; GROUP BY keys a
// chunk's codes once (groupRows) and a scan filter of the column against
// constants is decided once per entry (scanNode.scanAll). A dictionary
// may hold a string no element holds any more (an UPDATE moved off it),
// never lack one an element holds.
//
//qcpa:published a sealed vector is shared by every chunk version, table version and view cut after it; replace copies before writing
type colVec struct {
	kind   Kind
	ints   []int64
	floats []float64
	strs   []string
	nulls  *nullMap
	dict   []string
	codes  []uint8
}

// dictMax bounds a TEXT vector's dictionary: a code is one byte, and a
// filter's outcome per entry four words.
const dictMax = 256

// vecBuilder is a colVec still being built, the only form a vector is
// written in: seal and colVec.with fill one and convert it to the colVec
// they hand out, after which nothing writes it. A run's block vectors
// (block.go) are vecBuilders too, rewritten by every gather and read as
// colVecs.
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
		b.codes = make([]uint8, rowChunkLen)
	}
	return b
}

// set stores val, already of the vector's kind or NULL, as element i.
// The null map appears with the first NULL and goes with the last. A
// TEXT vector's dictionary takes the string, or goes once it would pass
// dictMax entries; index, when not nil, is where the string's code is
// looked up once the dictionary has grown past a few entries (made
// then).
func (b *vecBuilder) set(i int, val Value, index **dictIndex) {
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
		if b.codes != nil && val.K != KindNull {
			b.code(i, val.S, index)
		}
	}
}

// dictScan is how many entries code compares one by one before it
// looks a string up in the index it is given.
const dictScan = 16

// code sets element i's code for s: its entry in the dictionary, added
// when new; the dictionary goes when it is full.
func (b *vecBuilder) code(i int, s string, index **dictIndex) {
	if index == nil || len(b.dict) <= dictScan {
		// The newest entry first: equal strings tend to come in runs.
		for c := len(b.dict) - 1; c >= 0; c-- {
			if b.dict[c] == s {
				b.codes[i] = uint8(c)
				return
			}
		}
	} else {
		if *index == nil {
			*index = new(dictIndex)
		}
		if c, ok := (*index).find(b.dict, s); ok {
			b.codes[i] = c
			return
		}
	}
	if len(b.dict) == dictMax {
		b.dict, b.codes = nil, nil
		return
	}
	b.codes[i] = uint8(len(b.dict))
	b.dict = append(b.dict, s)
}

// dictIndex finds a string's entry in a dictionary seal is building
// once it has passed dictScan entries: an open-addressing table of entry
// + 1 by the string's hash, at most half full. It indexes the entries
// it has not seen yet on each lookup.
type dictIndex struct {
	n     int // the dictionary's entries it holds
	slots [2 * dictMax]uint16
}

// find returns s's entry in dict, after adding dict's new entries.
func (ix *dictIndex) find(dict []string, s string) (uint8, bool) {
	const mask = 2*dictMax - 1
	for ; ix.n < len(dict); ix.n++ {
		i := maphash.String(textSeed, dict[ix.n]) & mask
		for ix.slots[i] != 0 {
			i = (i + 1) & mask
		}
		ix.slots[i] = uint16(ix.n + 1)
	}
	for i := maphash.String(textSeed, s) & mask; ix.slots[i] != 0; i = (i + 1) & mask {
		if c := ix.slots[i] - 1; dict[c] == s {
			return uint8(c), true
		}
	}
	return 0, false
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
// idxs[k] of the chunk; it shares nothing with the receiver. The copy
// keeps the dictionary, extended by the strings written, until it would
// pass dictMax entries.
func (v *colVec) with(idxs []int, rows []Row, col int) colVec {
	b := &vecBuilder{kind: v.kind, ints: slices.Clone(v.ints), floats: slices.Clone(v.floats), strs: slices.Clone(v.strs),
		codes: slices.Clone(v.codes), dict: slices.Clone(v.dict)}
	if v.nulls != nil {
		m := *v.nulls
		b.nulls = &m
	}
	for k, i := range idxs {
		b.set(i%rowChunkLen, rows[k][col], nil)
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
// eval reads a write's row through (a SELECT's run reads blocks,
// block.go), so reaching a row costs no copy and reading one of its
// columns touches that column's vector alone.
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
	index := make([]*dictIndex, len(bs)) // made where a dictionary grows past dictScan
	for i, r := range full {
		for col := range bs {
			val := r[col]
			if val.K != bs[col].kind {
				val, _ = coerce(val, bs[col].kind)
			}
			bs[col].set(i, val, &index[col])
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
// (pkFan slice headers and counts) and one shard of about
// rows/(pkFan*pkFan) keys.
const pkFan = 64

// pkEntry is what a pk shard's slots hold: pkEnt, an integer key, or
// pkKeyEnt, any other. A slot holds a key and its row position + 1, or
// is empty (pos 0).
type pkEntry[E any] interface {
	pkEnt | pkKeyEnt
	hash() uint64 // the shard from the top 12 bits, the slot from the low ones
	same(E) bool  // the same key
	pos() int     // row position + 1; 0 for an empty slot
}

// pkEnt is an integer key — keyOf's KindInt: an INT column's values, a
// FLOAT column's integral ones — compared as its int64. It holds no
// pointer, so a shard of them is nothing for the collector to scan.
type pkEnt struct {
	k  int64
	at int
}

func (e pkEnt) hash() uint64      { return mix(uint64(e.k)) }
func (e pkEnt) same(o pkEnt) bool { return e.k == o.k }
func (e pkEnt) pos() int          { return e.at }

// pkKeyEnt is any other key — a non-integral float, text, NULL —
// compared as its hkey.
type pkKeyEnt struct {
	k  hkey
	at int
}

func (e pkKeyEnt) hash() uint64         { return hashHkeys([]hkey{e.k}) }
func (e pkKeyEnt) same(o pkKeyEnt) bool { return e.k == o.k }
func (e pkKeyEnt) pos() int             { return e.at }

// pkDir is the second directory level: pkFan shards and the keys each
// holds. A shard is a flat table of entries: a power-of-two count of
// slots, at most half full, probed linearly from the low bits of the
// key's hash; nil when empty.
//
//qcpa:published directories and the shards they hold are shared by every index version and view cut after them
type pkDir[E pkEntry[E]] struct {
	shards [pkFan][]E
	keys   [pkFan]int32
}

// pkDirBuilder is a pkDir still being written: a pkWriter's copy, the
// only form a directory is written in.
type pkDirBuilder[E pkEntry[E]] pkDir[E]

// pkRoot is the first directory level.
//
//qcpa:published shared by every index version and view cut after it
type pkRoot[E pkEntry[E]] [pkFan]*pkDir[E]

// pkTree is a persistent map from the keys of one kind of entry to row
// positions: pkFan*pkFan shards behind two directory levels. The zero
// value is empty.
type pkTree[E pkEntry[E]] struct {
	root *pkRoot[E]
}

// pkIndex maps a primary key, by keyOf's classes, to its row position:
// the integer keys in one tree, every other key in a second, so the
// integer keys of every workload's pk are compared as int64s, and no key
// is formatted. The zero value is the empty index.
type pkIndex struct {
	ints pkTree[pkEnt]
	keys pkTree[pkKeyEnt]
}

// pkShard is the shard number a key hashed h falls in: its top 12 bits,
// directory then shard, which leave the slot's low bits alone.
func pkShard(h uint64) int { return int(h >> 52) }

// pkHash is where key k falls in its tree.
func pkHash(k hkey) uint64 {
	if k.kind == KindInt {
		return pkEnt{k: int64(k.num)}.hash()
	}
	return pkKeyEnt{k: k}.hash()
}

// shard returns the shard a key hashed h falls in; nil when nothing is
// in it.
func (t pkTree[E]) shard(h uint64) []E {
	if t.root == nil {
		return nil
	}
	if d := t.root[pkShard(h)/pkFan]; d != nil {
		return d.shards[pkShard(h)%pkFan]
	}
	return nil
}

// find returns the row position of e's key.
func (t pkTree[E]) find(e E) (int, bool) {
	h := e.hash()
	s := t.shard(h)
	mask := uint64(len(s) - 1)
	for i := h & mask; len(s) > 0 && s[i].pos() != 0; i = (i + 1) & mask {
		if s[i].same(e) {
			return s[i].pos() - 1, true
		}
	}
	return 0, false
}

// find returns v's row position. It formats and allocates nothing, which
// is what a join step probing once per prefix tuple needs.
func (p pkIndex) find(v Value) (int, bool) {
	k := keyOf(v)
	if k.kind == KindInt {
		return p.findInt(int64(k.num))
	}
	return p.keys.find(pkKeyEnt{k: k})
}

// findInt is find of the integer k.
func (p pkIndex) findInt(k int64) (int, bool) { return p.ints.find(pkEnt{k: k}) }

// minShard is the fewest slots a shard holding a key has.
const minShard = 4

// shardWith returns a copy of the shard s, which holds used keys, with
// room for n more: a copy of its slots while they stay at most half
// full, else a larger table its keys are moved into.
func shardWith[E pkEntry[E]](s []E, used, n int) []E {
	size := max(len(s), minShard)
	for 2*(used+n) > size {
		size *= 2
	}
	if size == len(s) {
		return slices.Clone(s)
	}
	out := make([]E, size)
	for _, e := range s {
		if e.pos() != 0 {
			shardPut(out, e, false)
		}
	}
	return out
}

// shardPut puts e into the shard s, which has room for it. A key already
// there keeps its position unless over, and shardPut reports it.
func shardPut[E pkEntry[E]](s []E, e E, over bool) (dup bool) {
	mask := uint64(len(s) - 1)
	for i := e.hash() & mask; ; i = (i + 1) & mask {
		switch {
		case s[i].pos() == 0:
			s[i] = e
			return false
		case s[i].same(e):
			if over {
				s[i] = e
			}
			return true
		}
	}
}

// shardDel removes e's key from the shard s and reports whether it was
// there: the later keys of its probe run move back into the gap, so
// every key stays reachable from its home slot without tombstones.
func shardDel[E pkEntry[E]](s []E, e E) bool {
	mask := uint64(len(s) - 1)
	i := e.hash() & mask
	for ; !s[i].same(e) || s[i].pos() == 0; i = (i + 1) & mask {
		if s[i].pos() == 0 {
			return false
		}
	}
	for j := (i + 1) & mask; s[j].pos() != 0; j = (j + 1) & mask {
		// The key at j may fill the gap at i unless its home slot lies
		// cyclically in (i, j].
		if home := s[j].hash() & mask; (j-home)&mask >= (j-i)&mask {
			s[i] = s[j]
			i = j
		}
	}
	var empty E
	s[i] = empty
	return true
}

// pkWriter path-copies a tree for one write of one or more keys: each
// directory it writes once, each shard once, and the root when it is
// done (tree).
type pkWriter[E pkEntry[E]] struct {
	old    pkTree[E]
	dirs   [pkFan]*pkDirBuilder[E] // the directories copied; nil where none is
	shards [pkFan * pkFan / 64]uint64
}

// shard returns the writer's own copy of the directory holding the shard
// a key hashed h falls in, and the shard's place in it. It copies the
// directory, and the shard with room for n more keys, on first use.
func (w *pkWriter[E]) shard(h uint64, n int) (*pkDirBuilder[E], int) {
	sh := pkShard(h)
	a, b := sh/pkFan, sh%pkFan
	d := w.dirs[a]
	if d == nil {
		d = new(pkDirBuilder[E])
		if w.old.root != nil && w.old.root[a] != nil {
			*d = pkDirBuilder[E](*w.old.root[a])
		}
		w.dirs[a] = d
	}
	if w.shards[sh/64]>>(sh%64)&1 == 0 {
		d.shards[b] = shardWith(d.shards[b], int(d.keys[b]), n)
		w.shards[sh/64] |= 1 << (sh % 64)
	}
	return d, b
}

// put puts e, hashed h, into the writer's tree — the shard, if this
// copies it, with room for n keys — and reports a key already there,
// which keeps its position unless over.
func (w *pkWriter[E]) put(e E, h uint64, n int, over bool) bool {
	d, b := w.shard(h, n)
	dup := shardPut(d.shards[b], e, over)
	if !dup {
		d.keys[b]++
	}
	return dup
}

// del removes e's key from the writer's tree.
func (w *pkWriter[E]) del(e E) {
	if d, b := w.shard(e.hash(), 0); shardDel(d.shards[b], e) {
		d.keys[b]--
	}
}

// tree returns what the writer wrote: a new root over the old one's
// directories and the copies; the old tree when it wrote nothing.
func (w *pkWriter[E]) tree() pkTree[E] {
	root, wrote := new(pkRoot[E]), false
	if w.old.root != nil {
		*root = *w.old.root
	}
	for a, d := range w.dirs {
		if d != nil {
			root[a], wrote = (*pkDir[E])(d), true
		}
	}
	if !wrote {
		return w.old
	}
	return pkTree[E]{root}
}

// set returns the index with key mapped to idx.
func (p pkIndex) set(key hkey, idx int) pkIndex {
	p, _ = p.put(key, idx, true)
	return p
}

// put returns the index with key mapped to idx, unless key is there and
// not over, which it reports.
func (p pkIndex) put(key hkey, idx int, over bool) (pkIndex, bool) {
	var dup bool
	if key.kind == KindInt {
		e := pkEnt{int64(key.num), idx + 1}
		w := pkWriter[pkEnt]{old: p.ints}
		dup = w.put(e, e.hash(), 1, over)
		p.ints = w.tree()
	} else {
		e := pkKeyEnt{key, idx + 1}
		w := pkWriter[pkKeyEnt]{old: p.keys}
		dup = w.put(e, e.hash(), 1, over)
		p.keys = w.tree()
	}
	return p, dup
}

// del returns the index without key.
func (p pkIndex) del(key hkey) pkIndex {
	if key.kind == KindInt {
		w := pkWriter[pkEnt]{old: p.ints}
		w.del(pkEnt{k: int64(key.num)})
		p.ints = w.tree()
	} else {
		w := pkWriter[pkKeyEnt]{old: p.keys}
		w.del(pkKeyEnt{k: key})
		p.keys = w.tree()
	}
	return p
}

// insertAll returns the index with keys[k] mapped to base+k for every
// k, in order. It stops at the first key that is already present — in
// the receiver or earlier in keys — and returns that position (len(keys)
// when all went in); the keys before it are in the result. Each touched
// directory is copied once and each touched shard once, sized for the
// keys that fall in it, so a bulk load moves no key twice and a small
// batch into a large table copies only the shards it lands in.
func (p pkIndex) insertAll(keys []hkey, base int) (pkIndex, int) {
	if len(keys) == 1 {
		if np, dup := p.put(keys[0], base, false); !dup {
			return np, 1
		}
		return p, 0
	}
	var incoming [pkFan * pkFan]int32 // keys per shard number, of either tree
	for _, k := range keys {
		incoming[pkShard(pkHash(k))]++
	}
	ints, others := pkWriter[pkEnt]{old: p.ints}, pkWriter[pkKeyEnt]{old: p.keys}
	n := len(keys)
	for i, k := range keys {
		h := pkHash(k)
		room := int(incoming[pkShard(h)])
		var dup bool
		if k.kind == KindInt {
			dup = ints.put(pkEnt{int64(k.num), base + i + 1}, h, room, false)
		} else {
			dup = others.put(pkKeyEnt{k, base + i + 1}, h, room, false)
		}
		if dup {
			n = i
			break
		}
	}
	return pkIndex{ints.tree(), others.tree()}, n
}
