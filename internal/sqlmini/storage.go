package sqlmini

// This file holds the two structure-shared containers a Table and its
// published tableViews are made of: rowStore (row headers) and pkIndex
// (primary key -> row position). Both are persistent in the functional
// sense: every mutator returns a new value that shares all untouched
// nodes with the old one, and nothing an earlier value can reach is ever
// written. A committed write therefore copies what it touches — one
// chunk and the spine, one pk shard and its two directory nodes — and
// not the table. view.go states the sharing rules these types rely on.

// rowChunkLen is the number of row headers in a sealed chunk. A one-row
// UPDATE copies one chunk (rowChunkLen headers) plus the spine (one
// pointer per chunk); 1024 keeps the two comparable up to about a
// million rows, so the copy stays flat across the table sizes in use.
const rowChunkLen = 1024

// rowChunk is a sealed run of exactly rowChunkLen row headers.
//
//qcpa:published sealed chunks are shared by every table version and view cut after them; replace copies before writing
type rowChunk [rowChunkLen]Row

// rowStore holds a table's row headers in position order: full sealed
// chunks behind a spine, then a tail slab of fewer than rowChunkLen
// rows. A table smaller than one chunk is just its tail.
//
// A rowStore value is copied into every tableView. Two slices in it may
// share backing arrays with later versions: append writes the spine and
// the tail only beyond the lengths every earlier copy was cut with, so
// readers — bounded by their own lengths — never see those writes.
type rowStore struct {
	chunks []*rowChunk
	tail   []Row
}

func (s rowStore) len() int { return len(s.chunks)*rowChunkLen + len(s.tail) }

// at returns the row at position i.
func (s rowStore) at(i int) Row {
	if ci := i / rowChunkLen; ci < len(s.chunks) {
		return s.chunks[ci][i%rowChunkLen]
	}
	return s.tail[i-len(s.chunks)*rowChunkLen]
}

// window returns the row at position i as a one-row slice of the store
// itself; the result must not be written.
func (s rowStore) window(i int) []Row {
	run, j := s.tail, i-len(s.chunks)*rowChunkLen
	if ci := i / rowChunkLen; ci < len(s.chunks) {
		run, j = s.chunks[ci][:], i%rowChunkLen
	}
	return run[j : j+1 : j+1]
}

// runs is the number of contiguous runs the store iterates as: every
// sealed chunk, then the tail. Run k starts at position k*rowChunkLen.
func (s rowStore) runs() int { return len(s.chunks) + 1 }

// run returns run k; the result must not be written.
func (s rowStore) run(k int) []Row {
	if k < len(s.chunks) {
		return s.chunks[k][:]
	}
	return s.tail
}

// flat returns the row headers as one new slice.
func (s rowStore) flat() []Row {
	out := make([]Row, 0, s.len())
	for k := 0; k < s.runs(); k++ {
		out = append(out, s.run(k)...)
	}
	return out
}

// append returns the store extended by rows, in order. It fills the
// tail in place (beyond every earlier copy's length, see rowStore) and
// seals it into a chunk whenever it reaches rowChunkLen; whole chunks'
// worth of input go straight into new chunks. Only the newest version
// of a store may be appended to — a Table replaces its store with the
// result, so its history never forks.
func (s rowStore) append(rows []Row) rowStore {
	for len(rows) > 0 {
		if len(s.tail) == 0 && len(rows) >= rowChunkLen {
			s.seal(rows[:rowChunkLen])
			rows = rows[rowChunkLen:]
			continue
		}
		k := min(rowChunkLen-len(s.tail), len(rows))
		s.tail = append(s.tail, rows[:k]...)
		rows = rows[k:]
		if len(s.tail) == rowChunkLen {
			s.seal(s.tail)
			s.tail = nil
		}
	}
	return s
}

// seal adds a chunk holding a copy of the rowChunkLen rows in full.
func (s *rowStore) seal(full []Row) {
	c := new(rowChunk)
	copy(c[:], full)
	s.chunks = append(s.chunks, c)
}

// replace returns the store with rows[k] at position idxs[k]; idxs is
// strictly ascending. The spine and every touched chunk (or the tail)
// are copied once; everything else is shared with the receiver.
func (s rowStore) replace(idxs []int, rows []Row) rowStore {
	if len(idxs) == 0 {
		return s
	}
	sealed := len(s.chunks) * rowChunkLen
	out := s
	if idxs[0] < sealed {
		out.chunks = append([]*rowChunk(nil), s.chunks...)
	}
	if idxs[len(idxs)-1] >= sealed {
		// Keep the capacity: the next INSERT appends without regrowing.
		out.tail = make([]Row, len(s.tail), cap(s.tail))
		copy(out.tail, s.tail)
	}
	var c *rowChunk
	copied := -1 // index of the chunk c is the copy of
	for k, i := range idxs {
		if i >= sealed {
			out.tail[i-sealed] = rows[k]
			continue
		}
		if ci := i / rowChunkLen; ci != copied {
			c = new(rowChunk)
			*c = *s.chunks[ci]
			out.chunks[ci] = c
			copied = ci
		}
		c[i%rowChunkLen] = rows[k]
	}
	return out
}

// pkFan is the fan-out of each of the pk index's two directory levels:
// pkFan*pkFan shards. A single-key write copies one root, one directory
// (pkFan pointers each) and one shard of about rows/(pkFan*pkFan) keys.
const pkFan = 64

// pkDir is the second directory level: pkFan shards, each a plain map
// from key() form to row position (nil when empty).
//
//qcpa:published directories and the shard maps they own are shared by every index version and view cut after them
type pkDir [pkFan]map[string]int

// pkRoot is the first directory level.
//
//qcpa:published shared by every index version and view cut after it
type pkRoot [pkFan]*pkDir

// pkIndex maps a primary key's key() form to its row position. The
// zero value is the empty index.
type pkIndex struct {
	root *pkRoot
}

// pkSlot returns a key's directory and shard number: the low bits of
// FNV-1a over the key, with the high half folded in.
func pkSlot[K string | []byte](key K) (int, int) {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
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

func (p pkIndex) get(key string) (int, bool) {
	i, ok := p.shard(pkSlot(key))[key]
	return i, ok
}

// find is get for a value rather than its rendered key: it renders on
// the stack and allocates nothing, which is what a join step probing
// once per prefix tuple needs.
func (p pkIndex) find(v Value) (int, bool) {
	var buf [32]byte
	key := v.appendPKKey(buf[:0])
	i, ok := p.shard(pkSlot(key))[string(key)]
	return i, ok
}

// set returns the index with key mapped to idx.
func (p pkIndex) set(key string, idx int) pkIndex { return p.with(key, idx, true) }

// del returns the index without key.
func (p pkIndex) del(key string) pkIndex { return p.with(key, 0, false) }

// with path-copies the root, the directory and the shard key falls in.
func (p pkIndex) with(key string, idx int, present bool) pkIndex {
	a, b := pkSlot(key)
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
		if _, dup := p.get(keys[0]); dup {
			return p, 0
		}
		return p.set(keys[0], base), 1
	}
	slots := make([]uint16, len(keys))
	var incoming [pkFan * pkFan]int32 // keys per shard; -1 once the shard is copied
	for k, key := range keys {
		a, b := pkSlot(key)
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
