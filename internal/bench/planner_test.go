package bench

import (
	"testing"

	"qcpa/internal/sqlmini"
)

// BenchmarkSqlminiJoinOrder is the acceptance benchmark for cost-based
// join ordering: the SQL names the selective dimension table last, so
// only a reordered plan avoids materializing the big1⋈big2 product.
func BenchmarkSqlminiJoinOrder(b *testing.B) {
	microJoinOrder(b)
}

// coldShape gives st a LIMIT no execution has used yet. LIMIT is part of
// the statement's shape, so the plan cache misses and the plan is built
// cold; the limits are far above any result size and change no output.
func coldShape(st sqlmini.Statement, i int) {
	st.(*sqlmini.SelectStmt).Limit = 1<<30 + i
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
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cold {
				coldShape(st, i)
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
	st, err := sqlmini.Parse(plannerJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecStmt(st); err != nil {
		t.Fatal(err)
	}
	shapes := 0
	cold := testing.AllocsPerRun(50, func() {
		shapes++
		coldShape(st, shapes)
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
