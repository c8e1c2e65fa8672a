package sqlmini

//qcpa:deterministic — join, grouping and DISTINCT results depend on
// these maps only through lookups; none is ever ranged.

import (
	"encoding/binary"
	"math"
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
// form of the pk index and of keyMap's lists of three or more values.
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
// positive int32; get answers 0 for a list never put. One- and
// two-value lists are keyed by the hkeys themselves; longer ones by
// their rendering, which get builds in a reused buffer and only put
// copies into a string. It backs the hash join's build table, GROUP
// BY, SELECT DISTINCT and COUNT(DISTINCT). A map is one run's: a run
// with many lists to key draws it from the package's pools
// (execRun.keyMap) and empties it back when it returns, so no two runs
// ever hold one map at once.
//
// A map whose lists are one or two INT columns may key each list with
// no NULL in it by its integers instead (withInts): one in ints, two in
// pairs. Integers separate exactly the values hkeys would, and a list
// with a NULL goes through get and put, so a list is only ever in one
// of the maps. A lone integer keeps the 64-bit map:
// keyed as a pair, a GROUP BY of one INT column measured 1.4x slower.
type keyMap struct {
	arity int
	ints  map[int64]int32
	pairs map[[2]int64]int32
	one   map[hkey]int32
	two   map[[2]hkey]int32
	many  map[string]int32
	buf   []byte
}

func newKeyMap(arity, sizeHint int) *keyMap {
	m := &keyMap{arity: arity}
	switch arity {
	case 1:
		m.one = make(map[hkey]int32, sizeHint)
	case 2:
		m.two = make(map[[2]hkey]int32, sizeHint)
	default:
		m.many = make(map[string]int32, sizeHint)
	}
	return m
}

// reuse readies m, a map from the pools, new or emptied (empty), for
// lists of arity values: the map those are keyed in is made when m has
// none yet, and any map m has keeps the room it grew to.
func (m *keyMap) reuse(arity, sizeHint int) {
	m.arity = arity
	switch {
	case arity == 1 && m.one == nil:
		m.one = make(map[hkey]int32, sizeHint)
	case arity == 2 && m.two == nil:
		m.two = make(map[[2]hkey]int32, sizeHint)
	case arity != 1 && arity != 2 && m.many == nil:
		m.many = make(map[string]int32, sizeHint)
	}
}

// empty deletes every list from m, keeping each map's room for the
// next run that draws it.
func (m *keyMap) empty() {
	clear(m.ints)
	clear(m.pairs)
	clear(m.one)
	clear(m.two)
	clear(m.many)
}

// withInts readies m, a map of one- or two-value lists, to key lists
// of integers by getInts and putInts as well. A map whose lists are
// never NULL (a join of INT columns) is sized for the integers alone:
// newKeyMap(arity, 0), then withInts(n).
func (m *keyMap) withInts(sizeHint int) {
	switch {
	case m.arity == 1 && m.ints == nil:
		m.ints = make(map[int64]int32, sizeHint)
	case m.arity == 2 && m.pairs == nil:
		m.pairs = make(map[[2]int64]int32, sizeHint)
	}
}

// getInts is get of a NULL-free list of integers (withInts): k[1] is 0
// for a one-value list.
func (m *keyMap) getInts(k [2]int64) int32 {
	if m.arity == 1 {
		return m.ints[k[0]]
	}
	return m.pairs[k]
}

func (m *keyMap) putInts(k [2]int64, to int32) {
	if m.arity == 1 {
		m.ints[k[0]] = to
	} else {
		m.pairs[k] = to
	}
}

func (m *keyMap) render(vals []Value) {
	m.buf = m.buf[:0]
	for _, v := range vals {
		m.buf = appendKey(m.buf, v)
	}
}

func (m *keyMap) get(vals []Value) int32 {
	switch m.arity {
	case 1:
		return m.one[keyOf(vals[0])]
	case 2:
		return m.two[[2]hkey{keyOf(vals[0]), keyOf(vals[1])}]
	}
	m.render(vals)
	return m.many[string(m.buf)]
}

func (m *keyMap) put(vals []Value, to int32) {
	switch m.arity {
	case 1:
		m.one[keyOf(vals[0])] = to
	case 2:
		m.two[[2]hkey{keyOf(vals[0]), keyOf(vals[1])}] = to
	default:
		m.render(vals)
		m.many[string(m.buf)] = to
	}
}
