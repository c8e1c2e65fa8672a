package sqlmini

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// bucketColumn generates the values of an indexed column: n rows of
// kind, drawn by shape from a generator seeded with seed, each NULL with
// probability nulls/256. The INT shapes are a dense range, a sparse
// spread, a negative range, values at both ends of int64 (a range
// spanning MinInt64..MaxInt64) and dense ranges against either end; the
// FLOAT ones integral values (which key as the INTs they equal), NaNs
// of several payloads, ±0 and ±Inf among fractions; the TEXT ones the
// empty string, short strings of a small alphabet and long strings.
func bucketColumn(kind Kind, n int, shape, nulls uint8, seed int64) []Value {
	rng := rand.New(rand.NewSource(seed))
	span := int64(1 + n/(1+int(shape>>3)%4)) // how many distinct values a dense shape draws from
	vals := make([]Value, n)
	for i := range vals {
		if int(nulls) > rng.Intn(256) {
			vals[i] = Null
			continue
		}
		switch kind {
		case KindInt:
			var v int64
			switch shape % 6 {
			case 0:
				v = 1000 + rng.Int63n(span)
			case 1:
				v = rng.Int63n(1<<40) * 7919
			case 2:
				v = -rng.Int63n(span) - 5
			case 3:
				ends := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, 0, -1, 2}
				v = ends[rng.Intn(len(ends))]
			case 4:
				v = math.MaxInt64 - rng.Int63n(span)
			case 5:
				v = math.MinInt64 + rng.Int63n(span)
			}
			vals[i] = Int(v)
		case KindFloat:
			nan := math.Float64frombits(0x7ff8000000000000 | uint64(rng.Intn(4)))
			special := []float64{nan, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1 << 53, math.MaxInt64}
			switch r := rng.Intn(8); {
			case r < 3:
				vals[i] = Float(float64(rng.Int63n(span) - 2))
			case r < 6:
				vals[i] = Float(float64(rng.Int63n(span)) + 0.5)
			default:
				vals[i] = Float(special[rng.Intn(len(special))])
			}
		case KindText:
			switch r := rng.Intn(8); {
			case r == 0:
				vals[i] = Text("")
			case r == 1:
				vals[i] = Text(strings.Repeat("long text ", 1+rng.Intn(40)))
			default:
				var b []byte
				for j := rng.Intn(4); j >= 0; j-- {
					b = append(b, "ab2"[rng.Intn(3)])
				}
				vals[i] = Text(string(b))
			}
		}
	}
	return vals
}

// bucketProbes are values every built index is probed with besides its
// own: a FLOAT 2.0 must find the INT 2 and the reverse, text never finds
// a number, and the ends of int64 lie outside most ranges.
var bucketProbes = []Value{
	Int(2), Float(2), Float(2.5), Text("2"), Int(-1), Int(0), Float(math.Copysign(0, -1)),
	Float(math.NaN()), Int(math.MinInt64), Int(math.MaxInt64), Float(math.MaxInt64), Float(math.Inf(1)),
	Int(999), Int(1000), Int(-4), Int(-5), Text(""), Text("ab"),
}

// checkBuckets builds the hash member of an index over vals and holds
// every lookup to a Go map keyed by appendKey renderings: the positions
// of the rows holding the value, ascending, nothing for a value no row
// holds; and distinct to the map's size.
func checkBuckets(t *testing.T, kind Kind, vals []Value) {
	t.Helper()
	rows := make([]Row, len(vals))
	for i, v := range vals {
		rows[i] = Row{v}
	}
	st := newRowStore([]Column{{Name: "c", Type: kind}}).append(rows)
	ib := buildBuckets(&st, 0)
	ref := map[string][]int32{}
	for i, v := range vals {
		if !v.IsNull() {
			k := string(appendKey(nil, v))
			ref[k] = append(ref[k], int32(i))
		}
	}
	if ib.keys != len(ref) {
		t.Fatalf("%s column of %d rows (dense %v): %d distinct keys, want %d", kind, len(vals), ib.dense, ib.keys, len(ref))
	}
	for _, v := range append(slices.Clone(vals), bucketProbes...) {
		if v.IsNull() {
			continue
		}
		want := ref[string(appendKey(nil, v))]
		if got := ib.lookup(v); !slices.Equal(got, want) {
			t.Fatalf("%s column of %d rows (dense %v): lookup(%v) = %v, want %v", kind, len(vals), ib.dense, v, got, want)
		}
		if k := keyOf(v); k.kind == KindInt {
			if got := ib.lookupInt(int64(k.num)); !slices.Equal(got, want) {
				t.Fatalf("%s column of %d rows (dense %v): lookupInt(%d) = %v, want %v", kind, len(vals), ib.dense, int64(k.num), got, want)
			}
		}
	}
}

// FuzzIndexBuckets holds a secondary index's hash member to the
// reference (checkBuckets) over generated columns (bucketColumn): the
// kind (INT, FLOAT, TEXT), the row count (past a sealed chunk with a
// tail, for some), the shape, the share of NULLs and the seed.
func FuzzIndexBuckets(f *testing.F) {
	kinds := []Kind{KindInt, KindFloat, KindText}
	for i := 0; i < 24; i++ {
		f.Add(uint8(i%3), uint16(1+i*137%2600), uint8(i), uint8(i*29%96), int64(i))
	}
	f.Add(uint8(0), uint16(0), uint8(0), uint8(0), int64(0))     // no rows
	f.Add(uint8(0), uint16(50), uint8(0), uint8(255), int64(1))  // NULLs only
	f.Add(uint8(0), uint16(3000), uint8(3), uint8(10), int64(2)) // MinInt64..MaxInt64
	f.Fuzz(func(t *testing.T, kind uint8, n uint16, shape, nulls uint8, seed int64) {
		checkBuckets(t, kinds[int(kind)%len(kinds)], bucketColumn(kinds[int(kind)%len(kinds)], int(n)%4000, shape, nulls, seed))
	})
}

// TestIndexBucketsDirectory checks which directory a build takes: direct
// offsets for an INT column whose values span at most denseSpread times
// their count, at either end of int64 too, and a hash directory for a
// wider INT column and for any other kind.
func TestIndexBucketsDirectory(t *testing.T) {
	for _, c := range []struct {
		name  string
		kind  Kind
		vals  []Value
		dense bool
	}{
		{"dense", KindInt, []Value{Int(10), Int(12), Null, Int(10)}, true},
		{"at the threshold", KindInt, []Value{Int(0), Int(4 * 2)}, true},
		{"past the threshold", KindInt, []Value{Int(0), Int(4*2 + 1)}, false},
		{"at MaxInt64", KindInt, []Value{Int(math.MaxInt64), Int(math.MaxInt64 - 3)}, true},
		{"at MinInt64", KindInt, []Value{Int(math.MinInt64), Int(math.MinInt64 + 3)}, true},
		{"MinInt64..MaxInt64", KindInt, []Value{Int(math.MinInt64), Int(math.MaxInt64)}, false},
		{"NULLs only", KindInt, []Value{Null, Null}, false},
		{"integral floats", KindFloat, []Value{Float(1), Float(2)}, false},
	} {
		rows := make([]Row, len(c.vals))
		for i, v := range c.vals {
			rows[i] = Row{v}
		}
		st := newRowStore([]Column{{Name: "c", Type: c.kind}}).append(rows)
		if ib := buildBuckets(&st, 0); ib.dense != c.dense {
			t.Errorf("%s: dense %v, want %v", c.name, ib.dense, c.dense)
		}
		checkBuckets(t, c.kind, c.vals)
	}
}

// TestIndexBucketsAllocations holds a build of 20,000 rows to the
// allocations it makes — never one per distinct value: direct offsets
// take the index and the runs' two arrays (3); a hash directory adds a
// run number per row and the directory's doublings, a handful per
// doubling of the value count (18 for 20,000 integers, 32 for 5,000
// strings, whose hkeys grow too).
func TestIndexBucketsAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, c := range []struct {
		name string
		kind Kind
		val  func(i int) Value
		most float64
	}{
		{"dense INT", KindInt, func(i int) Value { return Int(int64(i / 3)) }, 3},
		{"sparse INT", KindInt, func(i int) Value { return Int(int64(i) * 7919) }, 24},
		{"TEXT", KindText, func(i int) Value { return Text(strconv.Itoa(i % 5000)) }, 40},
	} {
		rows := make([]Row, 20000)
		for i := range rows {
			rows[i] = Row{c.val(i)}
		}
		st := newRowStore([]Column{{Name: "c", Type: c.kind}}).append(rows)
		if got := testing.AllocsPerRun(5, func() { buildBuckets(&st, 0) }); got > c.most {
			t.Errorf("%s: a build of %d rows allocates %v times, want at most %v", c.name, len(rows), got, c.most)
		}
	}
}
