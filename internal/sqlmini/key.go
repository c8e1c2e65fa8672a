package sqlmini

//qcpa:deterministic — join, grouping and DISTINCT results depend on
// keyMap only through lookups: its slots are never ranged but to move
// them into a larger table, and where a list lands (its hash, seeded
// per process for text) decides how long a probe is, never its answer.

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
)

// hkey is a Value's identity as a comparable map key: integers by
// value, a float with an integral value folded onto that integer, any
// other float by its bits (every NaN alike), text by content, NULL
// alone. keyOf is the package's one rule for which values are the same
// key: the pk index (appendKey's rendering), secondary indexes, joins,
// grouping, the NDV sample and the checksum (appendSumKey) all take
// their keys from it, and Compare agrees with it (TestKeyClasses). It
// is built without formatting or allocating.
type hkey struct {
	kind Kind // KindInt also covers integral floats
	num  uint64
	str  string
}

func keyOf(v Value) hkey {
	switch v.K {
	case KindInt:
		return hkey{kind: KindInt, num: uint64(v.I)}
	case KindFloat:
		if v.F == float64(int64(v.F)) {
			return hkey{kind: KindInt, num: uint64(int64(v.F))}
		}
		if v.F != v.F {
			return hkey{kind: KindFloat, num: math.Float64bits(math.NaN())}
		}
		return hkey{kind: KindFloat, num: math.Float64bits(v.F)}
	case KindText:
		return hkey{kind: KindText, str: v.S}
	}
	return hkey{}
}

// appendKey appends a self-delimiting rendering of v's hkey: the key
// form of the pk index.
// Numbers are uvarints, so a small integer's key is a few bytes: with
// fixed 8-byte numbers a batched bulk load measured slower, its key
// strings in a larger size class and its shard copies hashing twice
// the memory.
func appendKey(buf []byte, v Value) []byte {
	k := keyOf(v)
	buf = append(buf, byte(k.kind))
	switch k.kind {
	case KindInt, KindFloat:
		buf = binary.AppendUvarint(buf, k.num)
	case KindText:
		buf = binary.AppendUvarint(buf, uint64(len(k.str)))
		buf = append(buf, k.str...)
	}
	return buf
}

// keyMap maps a fixed-length list of values, compared as hkeys, to a
// positive int32; get answers 0 for a list never put, and a put of a
// list already there overwrites its value (a hash join's chain heads
// rely on it). It backs the hash join's build table, GROUP BY, SELECT
// DISTINCT and COUNT(DISTINCT), and is one flat table for every arity:
// a power-of-two count of slots, probed linearly from a list's 64-bit
// hash, each holding the hash, the value and where the list's key is. A
// list of integers — every hkey KindInt, as a NULL-free list of INT
// columns always is — keeps its key as arity int64 words, any other
// list as arity hkeys; no list is rendered. A list of one integer keeps
// no key at all: its hash is a bijection of the integer (mix), so the
// hash alone tells it apart. getInts and putInts take a list of one or
// two integers as they are, without building Values or hkeys.
//
// Dense mode (useDense): a map of one-integer lists whose integers a
// pass over the input found in a range not much wider than the number
// of lists (denseSpread) indexes each integer k of the range directly,
// at dense[k-lo], and probes nothing. Any other list — a NULL group, an
// integer outside the range — still goes through the slots.
//
// A map's storage is run scratch: its slots, words and hkeys, and the
// dense array, are made while small and past minPooled drawn from the
// pools (take, grow) and given back when the run returns, the hkeys
// scrubbed of their strings; so a map never outlives its run. A map
// that could outgrow minPooled lists draws from its first list on
// rather than grow through the sizes a run makes.
type keyMap struct {
	arity  int
	first  int     // the slots taken for the first list
	pooled bool    // the map could outgrow minPooled lists
	lo     int64   // dense mode: integer k is at dense[k-lo]
	dense  []int32 // nil outside dense mode
	slots  []slot
	used   int     // slots holding a list
	words  []int64 // the keys of lists of integers, arity words each (none for arity 1)
	hkeys  []hkey  // the keys of the other lists, arity hkeys each
}

// slot is one list of a keyMap, or empty (val 0). at says where its key
// is: at >= 0, a list of integers at words[at*arity:]; else any other
// list at hkeys[^at*arity:].
type slot struct {
	hash uint64
	val  int32
	at   int32
}

// minSlots is the fewest slots a table holds once it holds a list.
const minSlots = 8

// newKeyMap returns an empty map for lists of arity values of which a
// run puts at most bound, its first slots sized for sizeHint lists.
func newKeyMap(arity, bound, sizeHint int) keyMap {
	m := keyMap{arity: arity, first: minSlots, pooled: bound > minPooled}
	for m.first < 2*sizeHint || m.pooled && m.first <= minPooled {
		m.first *= 2
	}
	return m
}

// more is what a key slab of n elements grows by at the least: a
// pooled map's first slab is drawn at once, not made and outgrown.
func (m *keyMap) more(n int) int {
	if n == 0 && m.pooled {
		return minPooled + 1
	}
	return m.arity
}

// denseSpread bounds dense mode: n lists whose integers span at most
// denseSpread*n take an array of at most denseSpread*n+1 int32s, under
// the bytes of the slots they would fill at most half of.
const denseSpread = 4

// useDense readies m, an empty map of one-integer lists of which a run
// puts at most n, whose non-NULL integers a pass found in [lo, hi]
// (lo > hi: there are none), to key them densely when the range is at
// most denseSpread*n wide, and returns the mode it took, for the run to
// record.
func (m *keyMap) useDense(x *execRun, lo, hi int64, n int) runMode {
	// hi - lo as an unsigned difference is exact at the ends of int64.
	if lo > hi || uint64(hi)-uint64(lo) > denseSpread*uint64(n) {
		return modeHashed
	}
	size := int(uint64(hi)-uint64(lo)) + 1
	m.lo, m.dense = lo, take(x, positions, size)[:size]
	clear(m.dense)
	return modeDense
}

// mix is a bijection of 64-bit words (murmur3's finaliser) that spreads
// every input bit over every output bit, low ones included, which pick
// the slot.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

func hashWords(w []int64) uint64 {
	var h uint64
	for _, k := range w {
		h = mix(h ^ uint64(k))
	}
	return h
}

// textSeed seeds the hash of text keys. It differs between processes,
// which moves text lists between slots, never between answers.
var textSeed = maphash.MakeSeed()

func hashHkeys(ks []hkey) uint64 {
	var h uint64
	for _, k := range ks {
		w := k.num
		if k.kind == KindText {
			w = maphash.String(textSeed, k.str)
		}
		h = mix(h ^ w ^ uint64(k.kind)<<56)
	}
	return h
}

// find returns the slot of the list hashed h whose key is the words w
// (hk nil) or the hkeys hk: the slot holding it, else the empty slot
// where it would go. m has slots, never all of them full.
func (m *keyMap) find(h uint64, w []int64, hk []hkey) *slot {
	mask := uint64(len(m.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.val == 0 || s.hash == h && m.holds(s.at, w, hk) {
			return s
		}
	}
}

// holds reports whether the key at at is the words w (hk nil) or the
// hkeys hk, given that the hashes agree.
func (m *keyMap) holds(at int32, w []int64, hk []hkey) bool {
	if hk == nil {
		return at >= 0 && (m.arity <= 1 || slices.Equal(m.words[int(at)*m.arity:][:m.arity], w))
	}
	return at < 0 && slices.Equal(m.hkeys[int(^at)*m.arity:][:m.arity], hk)
}

// room readies the slots for one more list: a table at most half full
// keeps probes short. A larger table is taken, the lists moved into it
// by their kept hashes, and the old one given back.
func (m *keyMap) room(x *execRun) {
	if 2*(m.used+1) <= len(m.slots) {
		return
	}
	n := 2 * len(m.slots)
	if n == 0 {
		n = m.first
	}
	old := m.slots
	m.slots = take(x, tableSlots, n)[:n]
	clear(m.slots)
	mask := uint64(n - 1)
	for _, s := range old {
		if s.val == 0 {
			continue
		}
		i := s.hash & mask
		for m.slots[i].val != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
	give(x, tableSlots, old)
}

// getInts is get of a list of one or two integers (k[1] is 0 for
// one), whose hkeys would all be KindInt.
func (m *keyMap) getInts(k [2]int64) int32 {
	return m.getWords(k[:m.arity])
}

func (m *keyMap) putInts(x *execRun, k [2]int64, to int32) {
	m.putWords(x, k[:m.arity], to)
}

func (m *keyMap) get(vals []Value) int32 {
	var wb [4]int64
	var kb [4]hkey
	w, hk := listKey(vals, wb[:0], kb[:0])
	if hk == nil {
		return m.getWords(w)
	}
	if m.used == 0 {
		return 0
	}
	return m.find(hashHkeys(hk), nil, hk).val
}

func (m *keyMap) put(x *execRun, vals []Value, to int32) {
	var wb [4]int64
	var kb [4]hkey
	w, hk := listKey(vals, wb[:0], kb[:0])
	if hk == nil {
		m.putWords(x, w, to)
		return
	}
	m.room(x)
	h := hashHkeys(hk)
	s := m.find(h, nil, hk)
	if s.val == 0 {
		*s = slot{hash: h, at: ^int32(len(m.hkeys) / m.arity)}
		if len(m.hkeys)+m.arity > cap(m.hkeys) {
			m.hkeys = grow(x, keyHkeys, m.hkeys, m.more(len(m.hkeys)))
		}
		m.hkeys = append(m.hkeys, hk...)
		m.used++
	}
	s.val = to
}

// listKey returns the key of the list vals: its integers appended to w
// when every hkey is KindInt (hk nil), else its hkeys appended to hk (w
// nil).
func listKey(vals []Value, w []int64, hk []hkey) ([]int64, []hkey) {
	for _, v := range vals {
		hk = append(hk, keyOf(v))
	}
	for _, k := range hk {
		if k.kind != KindInt {
			return nil, hk
		}
	}
	for _, k := range hk {
		w = append(w, int64(k.num))
	}
	return w, nil
}

func (m *keyMap) getWords(w []int64) int32 {
	if m.dense != nil {
		if i := uint64(w[0]) - uint64(m.lo); i < uint64(len(m.dense)) {
			return m.dense[i]
		}
	}
	if m.used == 0 {
		return 0
	}
	return m.find(hashWords(w), w, nil).val
}

func (m *keyMap) putWords(x *execRun, w []int64, to int32) {
	if m.dense != nil {
		if i := uint64(w[0]) - uint64(m.lo); i < uint64(len(m.dense)) {
			m.dense[i] = to
			return
		}
	}
	m.room(x)
	h := hashWords(w)
	s := m.find(h, w, nil)
	if s.val == 0 {
		*s = slot{hash: h}
		if m.arity > 1 {
			s.at = int32(len(m.words) / m.arity)
			if len(m.words)+m.arity > cap(m.words) {
				m.words = grow(x, keyWords, m.words, m.more(len(m.words)))
			}
			m.words = append(m.words, w...)
		}
		m.used++
	}
	s.val = to
}
