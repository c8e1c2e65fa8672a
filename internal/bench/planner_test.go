package bench

import (
	"fmt"
	"testing"

	"qcpa/internal/sqlmini"
)

// BenchmarkSqlminiJoinOrder is the acceptance benchmark for cost-based
// join ordering: the SQL names the selective dimension table last, so
// only a reordered plan avoids materializing the big1⋈big2 product.
func BenchmarkSqlminiJoinOrder(b *testing.B) {
	microJoinOrder(b)
}

// coldShapes parses plannerJoinSQL n times, each with a LIMIT no other
// text carries. LIMIT is part of a statement's shape, so the plan cache
// misses on every one and its plan is built cold; the limits are far
// above any result size and change no output. Parsing happens here, not
// in what the callers measure.
func coldShapes(tb testing.TB, n int) []sqlmini.Statement {
	stmts := make([]sqlmini.Statement, n)
	for i := range stmts {
		st, err := sqlmini.Parse(fmt.Sprintf("%s LIMIT %d", plannerJoinSQL, 1<<30+i))
		if err != nil {
			tb.Fatal(err)
		}
		stmts[i] = st
	}
	return stmts
}

// BenchmarkPlanCacheHit compares a cold plan build (a shape the cache
// has not seen, every iteration) against the warm lookup path. Run with
// -benchmem: the hit path must allocate less than half of the cold path.
func BenchmarkPlanCacheHit(b *testing.B) {
	run := func(b *testing.B, cold bool) {
		e, err := plannerJoinEngine(12, 6)
		if err != nil {
			b.Fatal(err)
		}
		st, err := sqlmini.Parse(plannerJoinSQL)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.ExecStmt(st); err != nil {
			b.Fatal(err)
		}
		var shapes []sqlmini.Statement
		if cold {
			shapes = coldShapes(b, b.N)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cold {
				st = shapes[i]
			}
			if _, err := e.ExecStmt(st); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, true) })
	b.Run("hit", func(b *testing.B) { run(b, false) })
}

// TestPlanCacheHitAllocations pins the BenchmarkPlanCacheHit acceptance
// ratio in the regular test suite: planning from the cache must cost
// less than half the allocations of planning cold.
func TestPlanCacheHitAllocations(t *testing.T) {
	e, err := plannerJoinEngine(12, 6)
	if err != nil {
		t.Fatal(err)
	}
	shapes := coldShapes(t, 51) // AllocsPerRun(50) runs its function 51 times
	var st sqlmini.Statement
	cold := testing.AllocsPerRun(50, func() {
		st, shapes = shapes[0], shapes[1:]
		if _, err := e.ExecStmt(st); err != nil {
			t.Error(err)
		}
	})
	hit := testing.AllocsPerRun(50, func() { // the last cold shape, now cached
		if _, err := e.ExecStmt(st); err != nil {
			t.Error(err)
		}
	})
	if hit >= cold/2 {
		t.Fatalf("cache hit allocates %.0f objs/op vs %.0f cold; want < half", hit, cold)
	}
}
