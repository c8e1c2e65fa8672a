package sqlmini

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// loadAcct fills table acct (pk id, an indexed column and two plain
// ones) with n rows.
func loadAcct(tb testing.TB, n int) *Engine {
	tb.Helper()
	e := New()
	if err := e.CreateTable("acct", []Column{
		{Name: "id", Type: KindInt, PrimaryKey: true},
		{Name: "branch", Type: KindInt},
		{Name: "balance", Type: KindInt},
		{Name: "note", Type: KindText},
	}); err != nil {
		tb.Fatal(err)
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Int(int64(i % 100)), Int(0), Text("n")}
	}
	if err := e.BulkInsert("acct", rows); err != nil {
		tb.Fatal(err)
	}
	if err := e.CreateIndex("acct", "branch"); err != nil {
		tb.Fatal(err)
	}
	return e
}

// roundsOf parses one single-statement round per SQL text.
func roundsOf(tb testing.TB, sqls []string) [][]Statement {
	tb.Helper()
	out := make([][]Statement, len(sqls))
	for i, sql := range sqls {
		st, err := Parse(sql)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = []Statement{st}
	}
	return out
}

// bytesPerRound applies the rounds on this goroutine and returns the
// mean bytes allocated per round.
func bytesPerRound(tb testing.TB, e *Engine, rounds [][]Statement) uint64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range rounds {
		if res := e.ApplyRound(r); res[0].Err != nil || res[0].Affected != 1 {
			tb.Fatalf("round: affected %d, err %v", res[0].Affected, res[0].Err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(len(rounds))
}

// TestWriteAllocationIndependentOfTableSize bounds what a committed
// single-row write allocates, in bytes and with no clock. A pk UPDATE
// round that assigns k columns copies those k vectors of one chunk
// (8 KiB a numeric column, 16 KiB a text one) and a fixed remainder: it
// stays under that budget on a 200k-row table, costs no more there than
// on a 20k-row one beyond a small allowance (the spine and the pk shard
// do grow, by bytes per thousand rows), and each further column adds
// about its vector and nothing else. An INSERT round is held to the
// same two bounds. Copying anything proportional to the table — or the
// chunk's other vectors — would overshoot.
func TestWriteAllocationIndependentOfTableSize(t *testing.T) {
	const (
		fixed     = 8 << 10 // spine, chunk header, the row, the statement, the view
		allowance = 8 << 10
		rounds    = 64
		numeric   = 8 * rowChunkLen
		text      = 16 * rowChunkLen
	)
	writes := []struct {
		op     string
		sql    func(i, n int) string
		budget uint64
	}{
		{"UPDATE of 1 column", func(i, n int) string {
			return fmt.Sprintf(`UPDATE acct SET balance = %d WHERE id = %d`, i+1, (i*7919)%n)
		}, numeric + fixed},
		{"UPDATE of 2 columns", func(i, n int) string {
			return fmt.Sprintf(`UPDATE acct SET balance = %d, branch = %d WHERE id = %d`, i+1, i%100, (i*7919)%n)
		}, 2*numeric + fixed},
		{"UPDATE of 3 columns", func(i, n int) string {
			return fmt.Sprintf(`UPDATE acct SET balance = %d, branch = %d, note = 'm' WHERE id = %d`, i+1, i%100, (i*7919)%n)
		}, 2*numeric + text + fixed},
		{"INSERT", func(i, n int) string { return fmt.Sprintf(`INSERT INTO acct VALUES (%d, 1, 0, 'n')`, n+i) }, 64 << 10},
	}
	measure := func(n int) []uint64 {
		e := loadAcct(t, n)
		bytesPerRound(t, e, roundsOf(t, []string{writes[0].sql(0, n)})) // first publish after the load
		out := make([]uint64, len(writes))
		for w, write := range writes {
			sqls := make([]string, rounds)
			for i := range sqls {
				sqls[i] = write.sql(i+1, n)
			}
			out[w] = bytesPerRound(t, e, roundsOf(t, sqls))
		}
		return out
	}
	small, big := measure(20_000), measure(200_000)
	for w, write := range writes {
		t.Logf("bytes per single-row %s round: %d (20k rows) %d (200k rows), budget %d", write.op, small[w], big[w], write.budget)
		if big[w] > write.budget {
			t.Errorf("a single-row %s round on 200k rows allocates %d bytes, over the %d budget", write.op, big[w], write.budget)
		}
		if big[w] > small[w]+allowance {
			t.Errorf("a single-row %s round allocates %d bytes on 200k rows against %d on 20k: it grows with the table", write.op, big[w], small[w])
		}
	}
}

// checksumFixture is a small fixed table — NULLs, integral and other
// floats, an integer widened into the FLOAT column, -Inf, NaN, the empty
// string — that sits on both sides of the seal boundary.
func checksumFixture(t *testing.T) *Engine {
	t.Helper()
	e := New()
	if err := e.CreateTable("fx", []Column{
		{Name: "id", Type: KindInt, PrimaryKey: true},
		{Name: "n", Type: KindInt},
		{Name: "f", Type: KindFloat},
		{Name: "s", Type: KindText},
	}); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, rowChunkLen+6)
	for i := range rows {
		r := Row{Int(int64(i)), Int(int64(i*i - 500)), Float(float64(i) / 4), Text(fmt.Sprintf("s%d", i%13))}
		switch i % 7 {
		case 1:
			r[1] = Null
		case 2:
			r[2] = Int(int64(i)) // widened on the way in
		case 3:
			r[3] = Null
		case 4:
			r[2], r[3] = Float(math.Inf(-1)), Text("")
		case 5:
			r[2] = Float(math.NaN())
		}
		rows[i] = r
	}
	if err := e.BulkInsert("fx", rows); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTableChecksumPinned pins the 64-bit digest of checksumFixture,
// after its load and after two UPDATEs, to the values the row-major
// engine before the column vectors computed for it (commit 1da71cf):
// replicas of mixed versions compare checksums, and a recorded one must
// keep its meaning.
func TestTableChecksumPinned(t *testing.T) {
	e := checksumFixture(t)
	check := func(when string, want uint64) {
		t.Helper()
		if got, err := e.TableChecksum("fx"); err != nil || got != want {
			t.Fatalf("%s: checksum %#x, %v; pinned %#x", when, got, err, want)
		}
	}
	check("after the load", 0xcb5c1709cfd0a596)
	mustExec(t, e, `UPDATE fx SET n = 7, s = 'x' WHERE id = 3`)
	mustExec(t, e, `UPDATE fx SET f = 2.5 WHERE id = 1029`)
	check("after two updates", 0x3e53769998f24e9a)
}

// BenchmarkApplyRoundSingleRow is one committed single-row pk UPDATE —
// write lock, copy what the row touches (the assigned column's vector
// in one chunk, the chunk's header, the spine, one pk shard), publish —
// at three table sizes. ns/op and B/op grow with the table today, the
// spine and the shard growing with it: measured on a 2-core Xeon
// container, 13.4 µs / 11,080 B at 10k rows and 20.3 µs / 17,720 B at
// 1M. Keeping them flat across sizes is an open goal (ROADMAP item 22).
func BenchmarkApplyRoundSingleRow(b *testing.B) {
	for _, size := range []struct {
		name string
		rows int
	}{{"10k", 10_000}, {"100k", 100_000}, {"1M", 1_000_000}} {
		b.Run(size.name, func(b *testing.B) {
			e := loadAcct(b, size.rows)
			sqls := make([]string, 1024)
			for i := range sqls {
				sqls[i] = fmt.Sprintf(`UPDATE acct SET balance = %d WHERE id = %d`, i+1, (i*7919)%size.rows)
			}
			rounds := roundsOf(b, sqls)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := e.ApplyRound(rounds[i%len(rounds)]); res[0].Err != nil {
					b.Fatal(res[0].Err)
				}
			}
		})
	}
}

// BenchmarkBulkInsert loads a 100k-row, 4-column table: /one-batch in
// one BulkInsert (the shape of a resync and of a benchmark fixture),
// /batches-1024 in 1024-row BulkInserts (a live copy's batches,
// LiveOptions.BatchRows). /pk-probe reads that table through a
// `WHERE id = ?` template re-bound to a fresh id each op.
func BenchmarkBulkInsert(b *testing.B) {
	const n = 100_000
	cols := []Column{
		{Name: "id", Type: KindInt, PrimaryKey: true},
		{Name: "n", Type: KindInt},
		{Name: "f", Type: KindFloat},
		{Name: "s", Type: KindText},
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Int(int64(i % 100)), Float(float64(i) / 4), Text(fmt.Sprintf("s%d", i%1000))}
	}
	load := func(b *testing.B, batch int) *Engine {
		e := New()
		if err := e.CreateTable("bulk", cols); err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < n; lo += batch {
			if err := e.BulkInsert("bulk", rows[lo:min(lo+batch, n)]); err != nil {
				b.Fatal(err)
			}
		}
		return e
	}
	for _, c := range []struct {
		name  string
		batch int
	}{{"one-batch", n}, {"batches-1024", 1024}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				load(b, c.batch)
			}
		})
	}
	b.Run("pk-probe", func(b *testing.B) {
		e := load(b, n)
		tmpl, err := Parse(`SELECT n FROM bulk WHERE id = 0`)
		if err != nil {
			b.Fatal(err)
		}
		args := []Value{Null}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			args[0] = Int(int64(i*7919) % n)
			st, err := BindLiterals(tmpl, args)
			if err != nil {
				b.Fatal(err)
			}
			if res, err := e.ExecStmt(st); err != nil || len(res.Rows) != 1 {
				b.Fatalf("probe %v: %v, %v", args[0], res, err)
			}
		}
	})
}

// pkUniverse returns n distinct keys of kind for the pk property test:
// about half of them in two shards of the index, so those shards grow,
// wrap their probe runs and close gaps on deletes; the rest anywhere. A
// FLOAT universe holds integral values (the integer tree's keys),
// fractions, NaN and -0 (which is 0); a TEXT one the empty string and
// long ones.
func pkUniverse(rng *rand.Rand, kind Kind, n int) []Value {
	draw := func() Value {
		switch kind {
		case KindInt:
			if rng.Intn(8) == 0 {
				return Int(rng.Int63() - rng.Int63())
			}
			return Int(rng.Int63n(1 << 20))
		case KindFloat:
			switch rng.Intn(6) {
			case 0:
				return Float(math.NaN())
			case 1:
				return Float(math.Copysign(0, -1))
			case 2, 3:
				return Float(float64(rng.Int63n(1 << 20)))
			}
			return Float(float64(rng.Int63n(1<<20)) + 0.25)
		}
		if rng.Intn(16) == 0 {
			return Text(strings.Repeat("k", rng.Intn(300)))
		}
		return Text("k" + strconv.FormatInt(rng.Int63n(1<<20), 36))
	}
	hot := map[int]bool{}
	seen := map[hkey]bool{}
	var out []Value
	for len(out) < n {
		v := draw()
		k := keyOf(v)
		sh := pkShard(pkHash(k))
		if len(hot) < 2 {
			hot[sh] = true
		}
		// A shard is one of 4096: keeping one other key in 512 keeps
		// about as many elsewhere as in the two.
		if seen[k] || !hot[sh] && rng.Intn(512) != 0 {
			continue
		}
		seen[k] = true
		out = append(out, v)
	}
	return out
}

// TestPKIndexAgainstReference runs seeded programs of insertAll, set and
// del over INT, FLOAT and TEXT keys — batches holding duplicates of
// each other and of stored keys among them — and holds every version
// the program made to a persistent reference: a Go map per version,
// keyed by appendKey renderings. insertAll must stop at the first
// duplicate with the keys before it in, set must overwrite, and a
// version must answer as it did when it was made, whatever came after.
func TestPKIndexAgainstReference(t *testing.T) {
	for _, kind := range []Kind{KindInt, KindFloat, KindText} {
		rng := rand.New(rand.NewSource(int64(kind) + 11))
		// The keys the programs use, then some more that are mostly
		// never put.
		universe := pkUniverse(rng, kind, 450)
		used := universe[:400]
		render := func(i int) string { return string(appendKey(nil, used[i])) }
		var versions []pkIndex
		var refs []map[string]int
		p, ref := pkIndex{}, map[string]int{}
		for op := 0; op < 600; op++ {
			ref = maps.Clone(ref)
			switch r := rng.Intn(10); {
			case r < 5:
				picks := make([]int, 1+rng.Intn(rng.Intn(120)+1))
				batch := make([]hkey, len(picks))
				for i := range picks {
					picks[i] = rng.Intn(len(used))
					batch[i] = keyOf(used[picks[i]])
				}
				base := rng.Intn(1 << 20)
				var n int
				p, n = p.insertAll(batch, base)
				want := len(picks)
				in := map[string]bool{}
				for i, pick := range picks {
					if _, dup := ref[render(pick)]; dup || in[render(pick)] {
						want = i
						break
					}
					in[render(pick)] = true
				}
				if n != want {
					t.Fatalf("%s op %d: insertAll of %d keys stopped at %d, want %d", kind, op, len(batch), n, want)
				}
				for i, pick := range picks[:n] {
					ref[render(pick)] = base + i
				}
			case r < 7:
				i, pos := rng.Intn(len(used)), rng.Intn(1<<20)
				p = p.set(keyOf(used[i]), pos)
				ref[render(i)] = pos
			default:
				i := rng.Intn(len(used))
				p = p.del(keyOf(used[i]))
				delete(ref, render(i))
			}
			versions, refs = append(versions, p), append(refs, ref)
		}
		for vi, v := range versions {
			for _, k := range universe {
				got, ok := v.find(k)
				want, wok := refs[vi][string(appendKey(nil, k))]
				if ok != wok || got != want {
					t.Fatalf("%s version %d: find(%v) = %d, %v; want %d, %v", kind, vi, k, got, ok, want, wok)
				}
			}
		}
	}
}
