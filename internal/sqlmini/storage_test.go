package sqlmini

import (
	"fmt"
	"runtime"
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
// single-row write allocates, in bytes and with no clock: a pk UPDATE
// round and an INSERT round each stay under a fixed budget on a
// 200k-row table, and cost no more there than on a 20k-row one beyond a
// small allowance (the spine and the pk shard do grow, by bytes per
// thousand rows). Copying anything proportional to the table — the pk
// map and the header slice were, before storage.go — would overshoot
// both by orders of magnitude.
func TestWriteAllocationIndependentOfTableSize(t *testing.T) {
	const (
		budget    = 64 << 10
		allowance = 8 << 10
		rounds    = 64
	)
	measure := func(n int) (update, insert uint64) {
		e := loadAcct(t, n)
		var upd, ins []string
		for i := 0; i < rounds; i++ {
			upd = append(upd, fmt.Sprintf(`UPDATE acct SET balance = %d WHERE id = %d`, i+1, (i*7919)%n))
			ins = append(ins, fmt.Sprintf(`INSERT INTO acct VALUES (%d, 1, 0, 'n')`, n+i))
		}
		updRounds, insRounds := roundsOf(t, upd), roundsOf(t, ins)
		bytesPerRound(t, e, updRounds[:1]) // first publish after the load
		return bytesPerRound(t, e, updRounds[1:]), bytesPerRound(t, e, insRounds)
	}
	smallUpd, smallIns := measure(20_000)
	bigUpd, bigIns := measure(200_000)
	t.Logf("bytes per single-row round: UPDATE %d (20k rows) %d (200k rows); INSERT %d (20k) %d (200k)", smallUpd, bigUpd, smallIns, bigIns)
	for _, c := range []struct {
		op         string
		small, big uint64
	}{{"UPDATE", smallUpd, bigUpd}, {"INSERT", smallIns, bigIns}} {
		if c.big > budget {
			t.Errorf("a single-row %s round on 200k rows allocates %d bytes, over the %d budget", c.op, c.big, budget)
		}
		if c.big > c.small+allowance {
			t.Errorf("a single-row %s round allocates %d bytes on 200k rows against %d on 20k: it grows with the table", c.op, c.big, c.small)
		}
	}
}

// BenchmarkApplyRoundSingleRow is one committed single-row pk UPDATE —
// write lock, copy what the row touches, publish — at three table
// sizes. ns/op and B/op stay flat from 10k to 1M rows.
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
