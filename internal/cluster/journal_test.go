package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
	"qcpa/internal/workload/tpcapp"
	"qcpa/internal/workload/tpch"
)

// limitShape is the text of the i-th of a family of distinct shapes: a
// LIMIT count is not a literal, so every i keys its own journal line.
func limitShape(i int) string { return fmt.Sprintf("SELECT a_v FROM a LIMIT %d", i) }

// recordN journals n executions of sql, as executeRouted does, and
// returns the key of its line.
func recordN(t *testing.T, c *Cluster, sql string, n int) string {
	t.Helper()
	st, err := sqlmini.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		c.record(st, sql, time.Millisecond)
	}
	return st.Key()
}

// TestEvictJournalDropsLeastFrequent exercises evictJournalLocked
// directly: with distinct counts 1..16 the least-frequent eighth (two
// lines) goes, the hot tail stays.
func TestEvictJournalDropsLeastFrequent(t *testing.T) {
	c, err := New(Config{Backends: core.UniformBackends(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = recordN(t, c, limitShape(i), i+1)
	}
	c.journalMu.Lock()
	defer c.journalMu.Unlock()
	if len(c.journal) != 16 {
		t.Fatalf("journal holds %d lines, want 16", len(c.journal))
	}
	c.evictJournalLocked()
	if len(c.journal) != 14 {
		t.Fatalf("journal holds %d lines after evict, want 14", len(c.journal))
	}
	for i, key := range keys {
		_, ok := c.journal[key]
		if want := i >= 2; ok != want {
			t.Fatalf("line with count %d: present = %v, want %v", i+1, ok, want)
		}
	}

	// The coldest line goes even when its key sorts last: uses
	// {z:1, a:2, b:2, ..., o:2}, quota two, evicts z and a — not a and b.
	clear(c.journal)
	c.journal["z"] = &journalLine{count: 1}
	for k := 'a'; k <= 'o'; k++ {
		c.journal[string(k)] = &journalLine{count: 2}
	}
	c.evictJournalLocked()
	for _, key := range []string{"z", "a"} {
		if _, ok := c.journal[key]; ok {
			t.Fatalf("line %q survived the eviction of the coldest two", key)
		}
	}
	if _, ok := c.journal["b"]; !ok || len(c.journal) != 14 {
		t.Fatalf("journal after evict: b present = %v, %d lines; want b kept, 14 lines", ok, len(c.journal))
	}
}

// TestEvictJournalTiesAndSingleton covers the edge cases: an all-equal
// journal loses exactly the quota (not every tied line), the lines of
// least key; and a one-line journal still frees a slot.
func TestEvictJournalTiesAndSingleton(t *testing.T) {
	c, err := New(Config{Backends: core.UniformBackends(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = recordN(t, c, limitShape(i), 1)
	}
	sort.Strings(keys)
	c.journalMu.Lock()
	c.evictJournalLocked()
	got := len(c.journal)
	for i, key := range keys {
		if _, ok := c.journal[key]; ok != (i >= 4) {
			t.Errorf("tied line %q (key rank %d): present = %v, want %v", key, i, ok, i >= 4)
		}
	}
	c.journalMu.Unlock()
	if got != 28 { // quota = 32/8 even though every count ties
		t.Fatalf("tied journal holds %d after evict, want 28", got)
	}

	c2, err := New(Config{Backends: core.UniformBackends(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	recordN(t, c2, limitShape(0), 1)
	c2.journalMu.Lock()
	c2.evictJournalLocked()
	got = len(c2.journal)
	c2.journalMu.Unlock()
	if got != 0 { // quota floors at one line
		t.Fatalf("singleton journal holds %d after evict, want 0", got)
	}
}

// TestJournalCapBounded: the query journal stays within journalCap
// shapes while a frequently-seen shape survives eviction.
func TestJournalCapBounded(t *testing.T) {
	c, err := New(Config{Backends: core.UniformBackends(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hot := `SELECT hot FROM q WHERE id = 1`
	recordN(t, c, hot, 100)
	for i := 0; i < journalCap+500; i++ {
		recordN(t, c, limitShape(i), 1)
	}
	c.journalMu.Lock()
	size := len(c.journal)
	c.journalMu.Unlock()
	if size > journalCap {
		t.Fatalf("journal grew to %d lines, cap %d", size, journalCap)
	}
	found := false
	for _, e := range c.History() {
		if e.SQL == hot && e.Count == 100 {
			found = true
		}
	}
	if !found {
		t.Fatal("hot line missing from History after eviction")
	}
}

// TestJournalLinePerShape: ad hoc and prepared executions of one
// template land on one line, whose count is their sum and whose text is
// the least one seen.
func TestJournalLinePerShape(t *testing.T) {
	c, _ := miniSetup(t)
	for _, sql := range []string{`SELECT a_v FROM a WHERE a_id = 3`, `select a_v from a where a_id = 2`} {
		if _, err := c.Execute(workload.Request{SQL: sql, Class: "QA"}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := c.Prepare(`SELECT a_v FROM a WHERE a_id = 1`, "QA", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]sqlmini.Value{nil, {sqlmini.Int(7)}, {sqlmini.Int(8)}} {
		if _, err := c.ExecPrepared(context.Background(), p, args); err != nil {
			t.Fatal(err)
		}
	}
	h := c.History()
	if len(h) != 1 || h[0].Count != 5 || h[0].SQL != `SELECT a_v FROM a WHERE a_id = 1` {
		t.Fatalf("history = %+v, want one line of 5 under the prepared template's text", h)
	}
}

// TestJournalSkipsDDL: a DDL statement sent with a class runs but is not
// journaled, so the journal still classifies.
func TestJournalSkipsDDL(t *testing.T) {
	c, _ := miniSetup(t)
	for _, req := range []workload.Request{
		{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"},
		{SQL: `CREATE TABLE scratch (s_id INT PRIMARY KEY)`, Class: "UB", Write: true},
		{SQL: `DROP TABLE scratch`, Class: "UB", Write: true},
	} {
		if _, err := c.Execute(req); err != nil {
			t.Fatalf("%s: %v", req.SQL, err)
		}
	}
	schema := sqlmini.Schema{"a": {
		{Name: "a_id", Type: sqlmini.KindInt, PrimaryKey: true},
		{Name: "a_v", Type: sqlmini.KindInt},
	}}
	if _, err := classify.Classify(c.History(), schema, classify.Options{}); err != nil {
		t.Fatalf("history after classed DDL does not classify: %v", err)
	}
}

// stream is one recorded request: its parse, text and duration (its
// template's cost, in whole microseconds).
type stream struct {
	stmt sqlmini.Statement
	sql  string
	d    time.Duration
}

// sample draws n requests of mix from seed and parses them.
func sample(t *testing.T, mix *workload.Mix, n int, seed int64) []stream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]stream, n)
	for i := range out {
		req := mix.Next(rng)
		st, err := sqlmini.Parse(req.SQL)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = stream{st, req.SQL, time.Duration(math.Round(req.Cost*1000)) * time.Microsecond}
	}
	return out
}

// classDesc names a class by what it is — kind and fragment set — not
// by its weight-ranked name.
func classDesc(c *core.Class) string { return fmt.Sprint(c.Kind, c.Fragments()) }

// TestShapeJournalMatchesTextJournal: recording a TPC-App stream and a
// TPC-H stream through record yields one line per template, and the
// lines classify, table- and column-based, into the classes the
// uncapped per-text journal of the same stream gives: the same kinds
// and fragment sets, every text in the same class, weights within 1e-9.
func TestShapeJournalMatchesTextJournal(t *testing.T) {
	app, err := tpcapp.Mix(3)
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := tpch.Mix()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name   string
		reqs   []stream
		schema sqlmini.Schema
		rows   map[string]int64
		shapes int
	}{
		{"tpcapp", sample(t, app, 20000, 1), tpcapp.Schema(), tpcapp.RowCounts(3), 10},
		{"tpch", sample(t, analytic, 2000, 1), tpch.Schema(), tpch.RowCounts(1), 19},
	} {
		c, err := New(Config{Backends: core.UniformBackends(1)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		perText := map[string]*classify.Entry{}
		keyOf := map[string]string{} // text -> shape key
		for _, r := range w.reqs {
			c.record(r.stmt, r.sql, r.d)
			e := perText[r.sql]
			if e == nil {
				e = &classify.Entry{SQL: r.sql, Cost: float64(r.d.Microseconds()) / 1000}
				perText[r.sql] = e
				keyOf[r.sql] = r.stmt.Key()
			}
			e.Count++
		}
		texts := make([]classify.Entry, 0, len(perText))
		for _, e := range perText {
			texts = append(texts, *e)
		}
		sort.Slice(texts, func(i, j int) bool { return texts[i].SQL < texts[j].SQL })

		hist := c.History()
		if len(hist) != w.shapes {
			t.Fatalf("%s: History has %d lines, want one per template (%d)", w.name, len(hist), w.shapes)
		}
		lineOf := map[string]string{} // shape key -> the line's text
		for _, e := range hist {
			st, err := sqlmini.Parse(e.SQL)
			if err != nil {
				t.Fatal(err)
			}
			lineOf[st.Key()] = e.SQL
		}
		for _, strategy := range []classify.Strategy{classify.TableBased, classify.ColumnBased} {
			opts := classify.Options{Strategy: strategy, RowCounts: w.rows}
			want, err := classify.Classify(texts, w.schema, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := classify.Classify(hist, w.schema, opts)
			if err != nil {
				t.Fatal(err)
			}
			weights := map[string]float64{}
			for _, cl := range want.Classification.Classes() {
				weights[classDesc(cl)] = cl.Weight
			}
			if n, m := len(got.Classification.Classes()), len(weights); n != m {
				t.Fatalf("%s %v: %d classes, want %d", w.name, strategy, n, m)
			}
			for _, cl := range got.Classification.Classes() {
				ww, ok := weights[classDesc(cl)]
				if !ok || math.Abs(cl.Weight-ww) > 1e-9 {
					t.Fatalf("%s %v: class %s has weight %v, want %v (present %v)", w.name, strategy, classDesc(cl), cl.Weight, ww, ok)
				}
			}
			for _, e := range texts {
				wantC := want.Classification.Class(want.ClassOf[e.SQL])
				gotC := got.Classification.Class(got.ClassOf[lineOf[keyOf[e.SQL]]])
				if gotC == nil || classDesc(gotC) != classDesc(wantC) {
					t.Fatalf("%s %v: %q classed %v, want %s", w.name, strategy, e.SQL, gotC, classDesc(wantC))
				}
			}
		}
	}
}

// TestJournalOrderFree: replaying the same requests from one goroutine
// and from eight gives the same History.
func TestJournalOrderFree(t *testing.T) {
	app, err := tpcapp.Mix(3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := sample(t, app, 4000, 2)
	var hists [2][]classify.Entry
	for i, workers := range []int{1, 8} {
		c, err := New(Config{Backends: core.UniformBackends(1)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := len(reqs) - 1 - w; k >= 0; k -= workers {
					c.record(reqs[k].stmt, reqs[k].sql, reqs[k].d)
				}
			}(w)
		}
		wg.Wait()
		hists[i] = c.History()
	}
	sameLines := func(a, b classify.Entry) bool { return a.SQL == b.SQL && a.Count == b.Count }
	if !slices.EqualFunc(hists[0], hists[1], sameLines) {
		t.Fatalf("History from 1 goroutine:\n%v\nfrom 8:\n%v", hists[0], hists[1])
	}
}
