package main

import (
	"fmt"
	"math/rand"
	"strings"

	"qcpa/internal/classify"
	"qcpa/internal/workload"
)

// streamSeed derives the rng seed of one request stream from the run
// seed, so connections (and the traced ladder) draw unrelated streams.
func streamSeed(seed int64, stream int) int64 {
	return seed*1_000_003 + int64(stream)*7919 + 1
}

// ladderStream is the stream index of the traced depth ladder; client
// connections use 0 and 1.
const ladderStream = 2

// pointKeys returns n uniform keys in [0, rows).
func pointKeys(seed int64, stream, n int, rows int64) []int64 {
	rng := rand.New(rand.NewSource(streamSeed(seed, stream)))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(rows)
	}
	return keys
}

// textStream is a pre-generated sequence of SQL statements stored as
// one string with offsets, so a million-statement stream is two heap
// objects and the collector has nothing to walk during the window.
type textStream struct {
	text string
	off  []uint32 // statement i is text[off[i]:off[i+1]]
	tpl  []uint8  // template index of statement i
}

func (s *textStream) sql(i int) string { return s.text[s.off[i]:s.off[i+1]] }

// mixedTemplates splits a mix's templates into the two halves the
// 50%-updates resampling draws from, each in mix order.
type mixedTemplates struct {
	all    []workload.Template
	reads  []int // indexes into all
	writes []int
}

func splitTemplates(mix *workload.Mix) mixedTemplates {
	m := mixedTemplates{all: mix.Templates()}
	for i, t := range m.all {
		if t.Write {
			m.writes = append(m.writes, i)
		} else {
			m.reads = append(m.reads, i)
		}
	}
	return m
}

// updateFraction is the share of updates by request count in
// tpcapp-mixed (E23's write-heavy point).
const updateFraction = 0.5

// pick draws one template index: an update with probability
// updateFraction, then by frequency within its half.
func (m mixedTemplates) pick(rng *rand.Rand) int {
	half := m.reads
	if rng.Float64() < updateFraction {
		half = m.writes
	}
	total := 0.0
	for _, i := range half {
		total += m.all[i].Freq
	}
	x := rng.Float64() * total
	acc := 0.0
	for _, i := range half {
		acc += m.all[i].Freq
		if x <= acc {
			return i
		}
	}
	return half[len(half)-1]
}

// journal renders the resampled mix as classification input: each
// half's counts sum to its share of total.
func (m mixedTemplates) journal(total int) []classify.Entry {
	var entries []classify.Entry
	for _, half := range []struct {
		idx   []int
		share float64
	}{{m.reads, 1 - updateFraction}, {m.writes, updateFraction}} {
		freq := 0.0
		for _, i := range half.idx {
			freq += m.all[i].Freq
		}
		for _, i := range half.idx {
			t := m.all[i]
			count := int(float64(total)*half.share*t.Freq/freq + 0.5)
			if count < 1 {
				count = 1
			}
			entries = append(entries, classify.Entry{SQL: t.Journal, Count: count, Cost: t.Cost})
		}
	}
	return entries
}

// insertPrefix starts the one TPC-App template whose generator is not
// a pure function of its rng: it numbers order_line keys from a
// process-wide counter.
const insertPrefix = "INSERT INTO order_line VALUES ("

// insertKeyBase keeps generated order_line keys clear of loaded ones;
// each stream owns a 2^32 range above it.
const insertKeyBase = int64(1) << 41

// mixedStream pre-generates n TPC-App statements at 50% updates. The
// insert key is rewritten to base+stream<<32+i so that the same seed
// gives the same bytes and no two statements of a run insert one key.
func mixedStream(m mixedTemplates, seed int64, stream, n int) *textStream {
	rng := rand.New(rand.NewSource(streamSeed(seed, stream)))
	var b strings.Builder
	s := &textStream{off: make([]uint32, 0, n+1), tpl: make([]uint8, 0, n)}
	for i := 0; i < n; i++ {
		ti := m.pick(rng)
		t := m.all[ti]
		sql := t.Journal
		if t.Gen != nil {
			sql = t.Gen(rng)
		}
		s.off = append(s.off, uint32(b.Len()))
		s.tpl = append(s.tpl, uint8(ti))
		if rest, ok := strings.CutPrefix(sql, insertPrefix); ok {
			_, rest, _ = strings.Cut(rest, ",")
			fmt.Fprintf(&b, "%s%d,%s", insertPrefix, insertKeyBase+int64(stream)<<32+int64(i), rest)
		} else {
			b.WriteString(sql)
		}
	}
	s.off = append(s.off, uint32(b.Len()))
	s.text = b.String()
	return s
}

// tpchInstance is one executable TPC-H statement of the pre-generated
// pool: variants instances per template.
type tpchInstance struct {
	tpl int
	sql string
}

const tpchVariants = 4

// tpchPool pre-generates tpchVariants parameter instances of every
// template (templates without substitution parameters repeat their
// canonical text). Instance v of template t is pool[t*tpchVariants+v].
func tpchPool(templates []workload.Template, seed int64) []tpchInstance {
	rng := rand.New(rand.NewSource(streamSeed(seed, 100)))
	pool := make([]tpchInstance, 0, len(templates)*tpchVariants)
	for t, tpl := range templates {
		for v := 0; v < tpchVariants; v++ {
			sql := tpl.Journal
			if tpl.Gen != nil {
				sql = tpl.Gen(rng)
			}
			pool = append(pool, tpchInstance{tpl: t, sql: sql})
		}
	}
	return pool
}

// tpchPasses returns passes*len(templates) pool indexes: each pass is a
// seeded permutation of the templates (as qgen orders a stream) with a
// seeded variant per template, so every pass does the same work.
func tpchPasses(nTemplates int, seed int64, stream, passes int) []int {
	rng := rand.New(rand.NewSource(streamSeed(seed, stream)))
	out := make([]int, 0, passes*nTemplates)
	for p := 0; p < passes; p++ {
		for _, t := range rng.Perm(nTemplates) {
			out = append(out, t*tpchVariants+rng.Intn(tpchVariants))
		}
	}
	return out
}

// driftedJournals returns the two journals the realloc workload
// alternates between: phase 0 multiplies the count of every other
// background entry by factor, phase 1 that of the entries between them.
// Entries whose SQL is in steady keep their count in both phases.
func driftedJournals(base []classify.Entry, steady map[string]bool, factor int) [2][]classify.Entry {
	var out [2][]classify.Entry
	for phase := range out {
		out[phase] = append([]classify.Entry(nil), base...)
		k := 0
		for i := range out[phase] {
			if steady[out[phase][i].SQL] {
				continue
			}
			if k%2 == phase {
				out[phase][i].Count *= factor
			}
			k++
		}
	}
	return out
}
