// Viewmutate cases: builder-phase writes are clean, post-publish
// writes are flagged, lazycache links are exempt, and pointer-slot
// rebinds never count as view mutation.
package viewmutate

import "sync"

// snapshot is the published root: immutable once stored.
//
//qcpa:published installed atomically; readers are lock-free
type snapshot struct {
	tables map[string]*tableSnap
}

//qcpa:published reachable from a published snapshot
type tableSnap struct {
	rows  []int
	cache lazyIdx
}

// lazyIdx is a mutex-serialized idempotent cache inside the view.
//
//qcpa:lazycache rebuilt from immutable rows under mu
type lazyIdx struct {
	mu      sync.Mutex
	buckets map[int][]int
}

// holder owns the published pointer; rebinding the slot is not a view
// mutation.
type holder struct {
	cur *snapshot
}

// build constructs a snapshot from scratch: every write targets a
// local composite literal, still unpublished.
func build() *snapshot {
	s := &snapshot{tables: map[string]*tableSnap{}}
	s.tables["t"] = newTableSnap()
	return s
}

func newTableSnap() *tableSnap {
	t := &tableSnap{}
	t.rows = append(t.rows, 1)
	return t
}

func buildNew() *tableSnap {
	t := new(tableSnap)
	t.rows = append(t.rows, 2)
	return t
}

func buildZero() tableSnap {
	var t tableSnap
	t.rows = []int{3}
	return t
}

// Writes through a parameter are post-publish by definition here.
func poke(s *snapshot) {
	s.tables["t"] = nil // want "writes through snapshot"
}

func pokeDeep(s *snapshot) {
	s.tables["t"].rows[0] = 2 // want "writes through tableSnap"
}

func drop(s *snapshot) {
	delete(s.tables, "t") // want "writes through snapshot"
}

func bump(t *tableSnap) {
	t.rows[0]++ // want "writes through tableSnap"
}

// The lazy cache may mutate inside the published value: the lazycache
// link exempts the whole access path.
func (t *tableSnap) fill(v int) {
	t.cache.mu.Lock()
	if t.cache.buckets == nil {
		t.cache.buckets = map[int][]int{}
	}
	t.cache.buckets[v] = append(t.cache.buckets[v], v)
	t.cache.mu.Unlock()
}

// Swapping which snapshot a holder points at mutates the holder, not
// the snapshot.
func (h *holder) swap(s *snapshot) {
	h.cur = s
}

// A column-major chunk: the vector is published, and it is written only
// in its builder form — a distinct type with the same fields, converted
// to the published one when it is full (sqlmini's colVec / vecBuilder).
//
//qcpa:published sealed vectors are shared by every chunk version after them
type vec struct {
	ints []int64
}

//qcpa:published sealed chunks are shared by every view cut after them
type chunk struct {
	cols []vec
}

type vecBuilder vec

func (b *vecBuilder) set(i int, x int64) {
	b.ints[i] = x
}

func seal(xs []int64) *chunk {
	b := &vecBuilder{ints: make([]int64, len(xs))}
	for i, x := range xs {
		b.set(i, x)
	}
	return &chunk{cols: []vec{vec(*b)}}
}

// with path-copies one vector: the copy is a local under construction.
func (c *chunk) with(col, i int, x int64) *chunk {
	out := &chunk{cols: append([]vec(nil), c.cols...)}
	b := vecBuilder{ints: append([]int64(nil), c.cols[col].ints...)}
	b.set(i, x)
	out.cols[col] = vec(b)
	return out
}

func pokeVector(c *chunk) {
	c.cols[0].ints[3] = 1 // want "writes through vec"
}

func swapVector(c *chunk, v vec) {
	c.cols[0] = v // want "writes through chunk"
}

func (v *vec) put(i int, x int64) {
	v.ints[i] = x // want "writes through vec"
}
