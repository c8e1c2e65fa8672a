package sqlmini

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// loadWide fills a table with n rows whose text column defeats every
// index, so a LIKE filter is a full scan.
func loadWide(t *testing.T, e *Engine, n int) {
	t.Helper()
	mustExec(t, e, `CREATE TABLE wide (id INT PRIMARY KEY, tag TEXT, num INT)`)
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, Row{Int(int64(i)), Text(fmt.Sprintf("tag-%d-x", i)), Int(int64(i % 97))})
	}
	if err := e.BulkInsert("wide", rows); err != nil {
		t.Fatal(err)
	}
}

// TestLongScanDoesNotBlockWriter is the blocked-writer regression test
// for the copy-on-write snapshot reads: before them, a long SELECT held
// the engine-wide reader lock and an INSERT into ANY table waited for
// the scan to drain. Now the scan runs against a published snapshot and
// the writer must commit while the scan is still in flight.
//
// The proof is an ordering, not a latency measurement: the scan runs
// under a context (parkedCtx) whose first check passes — the engine's
// up-front one — and whose next, the scan's poll at its first chunk
// boundary, parks the scan there until the INSERT has committed and
// then cancels it. The scan must come back canceled, and the INSERT
// must have committed while it was parked: under the old engine-wide
// lock it would have waited for the scan, which waits for it.
func TestLongScanDoesNotBlockWriter(t *testing.T) {
	e := New()
	const n = 200000
	loadWide(t, e, n)
	// The writes land in their own small table: an insert there is cheap
	// (tiny pk map to copy-on-write), while under the old engine-wide
	// lock it still had to wait for the wide scan.
	mustExec(t, e, `CREATE TABLE small (id INT PRIMARY KEY, v TEXT)`)
	st, err := Parse(`SELECT id FROM wide WHERE tag LIKE 'no-such-prefix%'`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &parkedCtx{Context: context.Background(), parked: make(chan struct{}), release: make(chan struct{})}
	scanErr := make(chan error, 1)
	go func() {
		_, err := e.ExecStmtContext(ctx, st)
		scanErr <- err
	}()
	<-ctx.parked // the scan is in flight, at its first chunk boundary
	committed := make(chan error, 1)
	go func() {
		_, err := e.Exec(`INSERT INTO small VALUES (1, 'fresh')`)
		committed <- err
	}()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	close(ctx.release)
	if err := <-scanErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("the parked scan returned %v, want it canceled", err)
	}
	if r := mustExec(t, e, `SELECT id FROM small`); len(r.Rows) != 1 {
		t.Fatalf("committed insert invisible: got %d rows", len(r.Rows))
	}
}

// parkedCtx is a context whose Err reports nothing on its first call;
// every later call parks until release is closed (closing parked on the
// first of them) and then reports context.Canceled.
type parkedCtx struct {
	context.Context
	calls           atomic.Int32
	once            sync.Once
	parked, release chan struct{}
}

func (c *parkedCtx) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	c.once.Do(func() { close(c.parked) })
	<-c.release
	return context.Canceled
}

// TestApplyRoundAtomicVisibility checks the one-epoch-per-round
// contract: concurrent readers must observe a round of inserts either
// entirely or not at all — row counts only ever jump in round-sized
// steps.
func TestApplyRoundAtomicVisibility(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE ev (id INT PRIMARY KEY, v INT)`)
	const roundSize = 8
	const rounds = 60

	var stop atomic.Bool
	var bad atomic.Value
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				res, err := e.Exec(`SELECT id FROM ev`)
				if err != nil {
					bad.Store(fmt.Sprintf("reader: %v", err))
					return
				}
				if len(res.Rows)%roundSize != 0 {
					bad.Store(fmt.Sprintf("saw %d rows: a partial round is visible", len(res.Rows)))
					return
				}
			}
		}()
	}
	next := 0
	for r := 0; r < rounds; r++ {
		stmts := make([]Statement, 0, roundSize)
		for i := 0; i < roundSize; i++ {
			st, err := Parse(fmt.Sprintf(`INSERT INTO ev VALUES (%d, %d)`, next, r))
			if err != nil {
				t.Fatal(err)
			}
			stmts = append(stmts, st)
			next++
		}
		for i, res := range e.ApplyRound(stmts) {
			if res.Err != nil {
				t.Fatalf("round %d stmt %d: %v", r, i, res.Err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	if got := e.Epoch(); got != int64(rounds)+1 { // +1 for CREATE TABLE
		t.Fatalf("epoch = %d, want %d (one per round plus the create)", got, rounds+1)
	}
	r := mustExec(t, e, `SELECT id FROM ev`)
	if len(r.Rows) != roundSize*rounds {
		t.Fatalf("got %d rows, want %d", len(r.Rows), roundSize*rounds)
	}
}

// TestPinnedViewIsImmutable checks View semantics: a pinned snapshot
// answers from its own epoch no matter what commits afterwards —
// including UPDATEs that rewrite rows in place and DELETEs that compact
// the row slab.
func TestPinnedViewIsImmutable(t *testing.T) {
	e := newTestDB(t)
	v := e.AcquireView()
	baseEpoch := v.Epoch()

	mustExec(t, e, `UPDATE item SET name = 'APPLE' WHERE id = 1`)
	mustExec(t, e, `DELETE FROM item WHERE id = 2`)
	mustExec(t, e, `INSERT INTO item VALUES (5, 'elderberry', 9.0, 3)`)

	r, err := e.QueryView(v, `SELECT name FROM item`)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		names = append(names, row[0].String())
	}
	got := strings.Join(names, ",")
	if got != "apple,banana,cherry,date" {
		t.Fatalf("pinned view saw %q, want the pre-write rows", got)
	}
	if v.Epoch() != baseEpoch {
		t.Fatalf("pinned epoch moved: %d -> %d", baseEpoch, v.Epoch())
	}
	if e.Epoch() <= baseEpoch {
		t.Fatalf("engine epoch did not advance past %d", baseEpoch)
	}
	// The live engine sees all three writes.
	live := mustExec(t, e, `SELECT name FROM item`)
	if len(live.Rows) != 4 { // 4 - 1 deleted + 1 inserted
		t.Fatalf("live read got %d rows, want 4", len(live.Rows))
	}
}

// propModel is the property test's oracle: the table's rows in position
// order (id, grp, val, tag, amt), maintained beside the engine by the same
// operations. INSERT appends, UPDATE rewrites in place, DELETE compacts
// keeping order — the engine's observable scan order.
type propModel struct {
	rows   []Row
	absent []int64 // ids of the universe not currently stored
}

func (m *propModel) pos(id int64) int {
	for i, r := range m.rows {
		if r[0].I == id {
			return i
		}
	}
	return -1
}

func (m *propModel) clone() []Row {
	out := make([]Row, len(m.rows))
	for i, r := range m.rows {
		out[i] = append(Row(nil), r...)
	}
	return out
}

// takeAbsent removes and returns a random id not in the table.
func (m *propModel) takeAbsent(rng *rand.Rand) int64 {
	i := rng.Intn(len(m.absent))
	id := m.absent[i]
	m.absent[i] = m.absent[len(m.absent)-1]
	m.absent = m.absent[:len(m.absent)-1]
	return id
}

const (
	propGroups = 8
	propVals   = 40
)

// step picks one random write, applies it to the model and returns its
// SQL. Every kind of write the storage distinguishes is in the mix: a
// tail append, a one-row rewrite of an unindexed and of an indexed
// column, a rewrite that changes nothing, a multi-row rewrite spanning
// chunks, a pk change (two shard writes), and compacting DELETEs.
func (m *propModel) step(rng *rand.Rand) string {
	present := func() Row { return m.rows[rng.Intn(len(m.rows))] }
	switch k := rng.Intn(20); {
	case k < 5 || len(m.rows) < 4:
		id := m.takeAbsent(rng)
		r := Row{Int(id), Int(int64(rng.Intn(propGroups))), Int(int64(rng.Intn(propVals))), Text(fmt.Sprintf("t%d", id)), Float(float64(id % 5))}
		m.rows = append(m.rows, r)
		// amt's literal is an integer: the FLOAT column widens it.
		return fmt.Sprintf(`INSERT INTO p VALUES (%d, %d, %d, '%s', %d)`, id, r[1].I, r[2].I, r[3].S, id%5)
	case k < 9:
		r, v := present(), int64(rng.Intn(propVals))
		r[2] = Int(v)
		return fmt.Sprintf(`UPDATE p SET val = %d WHERE id = %d`, v, r[0].I)
	case k < 11:
		r, g := present(), int64(rng.Intn(propGroups))
		r[1] = Int(g)
		return fmt.Sprintf(`UPDATE p SET grp = %d WHERE id = %d`, g, r[0].I)
	case k < 13:
		return fmt.Sprintf(`UPDATE p SET tag = tag WHERE id = %d`, present()[0].I)
	case k < 15:
		g := int64(rng.Intn(propGroups))
		for _, r := range m.rows {
			if r[1].I == g {
				r[2] = Int(r[2].I + 1)
			}
		}
		return fmt.Sprintf(`UPDATE p SET val = val + 1 WHERE grp = %d`, g)
	case k < 17:
		r, nid := present(), m.takeAbsent(rng)
		m.absent = append(m.absent, r[0].I)
		sql := fmt.Sprintf(`UPDATE p SET id = %d WHERE id = %d`, nid, r[0].I)
		r[0] = Int(nid)
		return sql
	case k < 19:
		id := present()[0].I
		i := m.pos(id)
		m.rows = append(m.rows[:i], m.rows[i+1:]...)
		m.absent = append(m.absent, id)
		return fmt.Sprintf(`DELETE FROM p WHERE id = %d`, id)
	default:
		g, v := int64(rng.Intn(propGroups)), int64(rng.Intn(propVals))
		kept := m.rows[:0]
		for _, r := range m.rows {
			if r[1].I == g && r[2].I < v {
				m.absent = append(m.absent, r[0].I)
			} else {
				kept = append(kept, r)
			}
		}
		m.rows = kept
		return fmt.Sprintf(`DELETE FROM p WHERE grp = %d AND val < %d`, g, v)
	}
}

// checkAgainst compares every answer query can give about table p —
// the full scan, a pk probe of every id of the universe, an index probe
// of every grp and val value — with the oracle rows.
func checkAgainst(t *testing.T, what string, query func(string) (*Result, error), want []Row, universe int64) {
	t.Helper()
	ask := func(sql string) []Row {
		t.Helper()
		r, err := query(sql)
		if err != nil {
			t.Fatalf("%s: %s: %v", what, sql, err)
		}
		return r.Rows
	}
	same := func(sql string, got, want []Row) {
		t.Helper()
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: %s\n got %v\nwant %v", what, sql, got, want)
		}
	}
	sql := `SELECT id, grp, val, tag, amt FROM p`
	same(sql, ask(sql), want)
	byID := make(map[int64]Row, len(want))
	for _, r := range want {
		byID[r[0].I] = r
	}
	for id := int64(0); id < universe; id++ {
		var exp []Row
		if r, ok := byID[id]; ok {
			exp = []Row{r}
		}
		sql := fmt.Sprintf(`SELECT id, grp, val, tag, amt FROM p WHERE id = %d`, id)
		same(sql, ask(sql), exp)
	}
	probe := func(col string, ci int, v int64) {
		t.Helper()
		var exp []Row
		for _, r := range want {
			if r[ci].I == v {
				exp = append(exp, Row{r[0]})
			}
		}
		sql := fmt.Sprintf(`SELECT id FROM p WHERE %s = %d`, col, v)
		same(sql, ask(sql), exp)
	}
	for g := int64(0); g < propGroups; g++ {
		probe("grp", 1, g)
	}
	for v := int64(0); v < propVals; v += 3 {
		probe("val", 2, v)
	}
}

// TestSharedStorageProperty drives random rounds of every kind of write
// against a table whose size sits on a chunk boundary, pinning a View
// with a deep copy of the oracle every few rounds. Afterwards every
// pinned view must still answer exactly as its oracle did when it was
// cut — no later write may have reached a node it shares — and the live
// engine must equal an engine rebuilt from scratch from the final rows.
// Readers run against the engine throughout, so under -race any write
// to memory a published view can reach is reported.
func TestSharedStorageProperty(t *testing.T) {
	const rounds = 48
	for _, n := range []int{7, rowChunkLen - 1, rowChunkLen, rowChunkLen + 1, 2*rowChunkLen + 3} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			universe := int64(n + 4*rounds + rowChunkLen) // the last of them fill a tail up to its seal
			const schema = `CREATE TABLE p (id INT PRIMARY KEY, grp INT, val INT, tag TEXT, amt FLOAT)`
			e := New()
			mustExec(t, e, schema)
			m := &propModel{}
			for id := int64(0); id < universe; id++ {
				if id < int64(n) {
					m.rows = append(m.rows, Row{Int(id), Int(id % propGroups), Int(id % propVals), Text(fmt.Sprintf("t%d", id)), Float(float64(id % 5))})
				} else {
					m.absent = append(m.absent, id)
				}
			}
			// The load hands amt over as integers, which the FLOAT column
			// widens on the way into its vector; the caller's rows stay as
			// they were.
			load := m.clone()
			for _, r := range load {
				r[4] = Int(int64(r[4].F))
			}
			if err := e.BulkInsert("p", load); err != nil {
				t.Fatal(err)
			}
			if load[0][4] != Int(0) {
				t.Fatalf("BulkInsert rewrote its caller's row: %v", load[0])
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rrng := rand.New(rand.NewSource(seed))
					for n := 0; !stop.Load(); n++ {
						if n%8 == 0 { // the whole table: ids stay unique
							res, err := e.Exec(`SELECT id FROM p`)
							if err != nil {
								t.Errorf("reader: %v", err)
								return
							}
							seen := make(map[int64]bool, len(res.Rows))
							for _, row := range res.Rows {
								if seen[row[0].I] {
									t.Errorf("reader: full scan returned id %d twice", row[0].I)
									return
								}
								seen[row[0].I] = true
							}
						}
						g := int64(rrng.Intn(propGroups))
						res, err := e.Exec(fmt.Sprintf(`SELECT id, grp FROM p WHERE grp = %d`, g))
						if err != nil {
							t.Errorf("reader: %v", err)
							return
						}
						for _, row := range res.Rows {
							if row[1].I != g {
								t.Errorf("reader: grp probe %d returned row %v", g, row)
								return
							}
						}
						// An interval and an ordered walk: once grp is indexed both
						// read the index's ordered member, which whichever reader
						// gets to a new view first builds while the others wait.
						res, err = e.Exec(fmt.Sprintf(`SELECT id, grp FROM p WHERE grp >= %d AND grp < %d`, g, g+1))
						if err != nil {
							t.Errorf("reader: %v", err)
							return
						}
						for _, row := range res.Rows {
							if row[1].I != g {
								t.Errorf("reader: grp interval [%d, %d) returned row %v", g, g+1, row)
								return
							}
						}
						res, err = e.Exec(`SELECT grp, id FROM p ORDER BY grp DESC LIMIT 5`)
						if err != nil {
							t.Errorf("reader: %v", err)
							return
						}
						for i := 1; i < len(res.Rows); i++ {
							if res.Rows[i][0].I > res.Rows[i-1][0].I {
								t.Errorf("reader: ORDER BY grp DESC returned %v", res.Rows)
								return
							}
						}
						id := rrng.Int63n(universe)
						res, err = e.Exec(fmt.Sprintf(`SELECT id, tag FROM p WHERE id = %d`, id))
						if err != nil || len(res.Rows) > 1 || (len(res.Rows) == 1 && res.Rows[0][0].I != id) {
							t.Errorf("reader: pk probe %d returned %v, %v", id, res, err)
							return
						}
					}
				}(int64(r))
			}

			type pin struct {
				round int
				view  View
				want  []Row
			}
			var pins []pin
			for round := 0; round < rounds; round++ {
				switch round {
				case 2:
					if err := e.CreateIndex("p", "grp"); err != nil {
						t.Fatal(err)
					}
				case rounds / 2:
					if err := e.CreateIndex("p", "val"); err != nil {
						t.Fatal(err)
					}
				}
				var stmts []Statement
				for i := 1 + rng.Intn(4); i > 0; i-- {
					sql := m.step(rng)
					st, err := Parse(sql)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					stmts = append(stmts, st)
				}
				for i, res := range e.ApplyRound(stmts) {
					if res.Err != nil {
						t.Fatalf("round %d stmt %d: %v", round, i, res.Err)
					}
				}
				if round%4 == 0 {
					pins = append(pins, pin{round, e.AcquireView(), m.clone()})
				}
			}
			stop.Store(true)
			wg.Wait()

			for _, p := range pins {
				p := p
				checkAgainst(t, fmt.Sprintf("view pinned after round %d", p.round),
					func(sql string) (*Result, error) { return e.QueryView(p.view, sql) }, p.want, universe)
			}
			checkAgainst(t, "live engine", e.Exec, m.rows, universe)

			fresh := New()
			mustExec(t, fresh, schema)
			if err := fresh.BulkInsert("p", m.rows); err != nil {
				t.Fatal(err)
			}
			for _, col := range []string{"grp", "val"} {
				if err := fresh.CreateIndex("p", col); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainst(t, "rebuilt engine", fresh.Exec, m.rows, universe)
			got, err := e.TableChecksum("p")
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.TableChecksum("p")
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("live checksum %x differs from a from-scratch rebuild's %x", got, want)
			}

			// The ordered member of every index, on every pinned view, is
			// what sorting that view's rows from scratch gives.
			checkOrder := func(what string, tv *tableView, rows []Row) {
				t.Helper()
				for _, idx := range tv.indexes {
					want := make([]int32, len(rows))
					for i := range want {
						want[i] = int32(i)
					}
					slices.SortStableFunc(want, func(a, b int32) int { return Compare(rows[a][idx.col], rows[b][idx.col]) })
					if o := idx.ordered(tv); !slices.Equal(o.pos, want) || o.nulls != 0 {
						t.Fatalf("%s: order of column %d is %v (%d NULLs), a fresh sort gives %v", what, idx.col, o.pos, o.nulls, want)
					}
				}
			}
			for _, p := range pins {
				checkOrder(fmt.Sprintf("view pinned after round %d", p.round), p.view.v.tables["p"], p.want)
			}
			// And it obeys the sharing rule of the buckets, one kind of write
			// at a time: a write that adds or moves no row and leaves grp's
			// values alone hands the next view the same built order — the
			// same slice, nothing sorted again — and any other write an index
			// that sorts the new rows.
			const grpCol = 1
			built := func() *indexOrder {
				tv := e.loadView().tables["p"]
				return tv.index(grpCol).ordered(tv)
			}
			last := built()
			for _, w := range []struct {
				kind   string
				shares bool
				write  func() string // changes the model, returns the SQL ("" when it did the write itself)
			}{
				{"UPDATE of another column", true, func() string {
					m.rows[0][3] = Text("rewritten")
					return fmt.Sprintf(`UPDATE p SET tag = 'rewritten' WHERE id = %d`, m.rows[0][0].I)
				}},
				{"pk-changing UPDATE", true, func() string {
					old, nid := m.rows[1][0].I, m.takeAbsent(rng)
					m.rows[1][0] = Int(nid)
					return fmt.Sprintf(`UPDATE p SET id = %d WHERE id = %d`, nid, old)
				}},
				{"CreateIndex on another column", true, func() string {
					if err := e.CreateIndex("p", "tag"); err != nil {
						t.Fatal(err)
					}
					return ""
				}},
				{"UPDATE of the indexed column", false, func() string {
					g := (m.rows[2][grpCol].I + 1) % propGroups
					m.rows[2][grpCol] = Int(g)
					return fmt.Sprintf(`UPDATE p SET grp = %d WHERE id = %d`, g, m.rows[2][0].I)
				}},
				{"INSERT", false, func() string {
					id := m.takeAbsent(rng)
					m.rows = append(m.rows, Row{Int(id), Int(3), Int(4), Text("new"), Float(1.5)})
					return fmt.Sprintf(`INSERT INTO p VALUES (%d, 3, 4, 'new', 1.5)`, id)
				}},
				{"DELETE", false, func() string {
					id := m.rows[0][0].I
					m.rows = m.rows[1:]
					return fmt.Sprintf(`DELETE FROM p WHERE id = %d`, id)
				}},
			} {
				if sql := w.write(); sql != "" {
					mustExec(t, e, sql)
				}
				checkOrder("after "+w.kind, e.loadView().tables["p"], m.rows)
				now := built()
				if shared := now == last; shared != w.shares {
					t.Fatalf("%s: the next view shares the built order: %v, want %v", w.kind, shared, w.shares)
				}
				last = now
			}

			// A sealed chunk obeys the same rule a column at a time: a view cut
			// before a write keeps reading the vectors it was cut with, and the
			// view after it shares every vector the write did not assign. First
			// fill the tail up to its seal, one INSERT at a time, under a pinned
			// view that must go on seeing the tail it was cut with.
			tailPin, tailWant := e.AcquireView(), m.clone()
			chunks := len(e.loadView().tables["p"].rows.chunks)
			for len(m.rows)%rowChunkLen != 0 {
				id := m.takeAbsent(rng)
				m.rows = append(m.rows, Row{Int(id), Int(1), Int(2), Text("fill"), Float(3)})
				mustExec(t, e, fmt.Sprintf(`INSERT INTO p VALUES (%d, 1, 2, 'fill', 3)`, id))
			}
			if rs := e.loadView().tables["p"].rows; len(rs.chunks) != chunks+1 || len(rs.tail) != 0 {
				t.Fatalf("%d rows sit in %d chunks and a tail of %d, want %d chunks and no tail", len(m.rows), len(rs.chunks), len(rs.tail), chunks+1)
			}
			checkAgainst(t, "view pinned before its tail was sealed", func(sql string) (*Result, error) { return e.QueryView(tailPin, sql) }, tailWant, universe)

			const valCol, tagCol, amtCol = 2, 3, 4
			shares := func(a, b *colVec) bool {
				if a.nulls != b.nulls {
					return false
				}
				switch a.kind {
				case KindInt:
					return &a.ints[0] == &b.ints[0]
				case KindFloat:
					return &a.floats[0] == &b.floats[0]
				}
				return &a.strs[0] == &b.strs[0]
			}
			at := len(m.rows) - 3 // a row of the chunk just sealed
			ci, off := at/rowChunkLen, at%rowChunkLen
			for _, w := range []struct {
				kind   string
				set    string
				assign map[int]Value // what the write stores, by column
				nulls  map[int]bool  // whether the column's vector has a null map afterwards
			}{
				{"UPDATE of one column", `val = val + 1000`, map[int]Value{valCol: Int(m.rows[at][valCol].I + 1000)}, nil},
				{"UPDATE to NULL", `tag = NULL`, map[int]Value{tagCol: Null}, map[int]bool{tagCol: true}},
				{"UPDATE of a NULL", `tag = 'back'`, map[int]Value{tagCol: Text("back")}, map[int]bool{tagCol: false}},
				{"UPDATE widening an integer", `amt = 7`, map[int]Value{amtCol: Float(7)}, nil},
				{"UPDATE of two columns", `val = 1, amt = 2.5`, map[int]Value{valCol: Int(1), amtCol: Float(2.5)}, nil},
			} {
				before, old := e.loadView().tables["p"].rows, slices.Clone(m.rows[at])
				mustExec(t, e, fmt.Sprintf(`UPDATE p SET %s WHERE id = %d`, w.set, m.rows[at][0].I))
				after := e.loadView().tables["p"].rows
				for c := range after.chunks {
					if same := after.chunks[c] == before.chunks[c]; same != (c != ci) {
						t.Fatalf("%s: chunk %d shared with the view before: %v", w.kind, c, same)
					}
				}
				for col := range old {
					nv, written := w.assign[col]
					if !written {
						nv = old[col]
					}
					m.rows[at][col] = nv
					if got := before.value(at, col); got != old[col] {
						t.Fatalf("%s: the view cut before it reads column %d as %v, was %v", w.kind, col, got, old[col])
					}
					if got := after.value(at, col); got != nv {
						t.Fatalf("%s: column %d reads %v, want %v", w.kind, col, got, nv)
					}
					if shared := shares(&after.chunks[ci].cols[col], &before.chunks[ci].cols[col]); shared == written {
						t.Fatalf("%s: column %d's vector shared with the view before: %v", w.kind, col, shared)
					}
					if want, ok := w.nulls[col]; ok {
						v := &after.chunks[ci].cols[col]
						if has := v.nulls != nil; has != want || (has && !v.nulls.has(off)) {
							t.Fatalf("%s: column %d's null map present: %v, want %v", w.kind, col, has, want)
						}
					}
				}
			}
			checkAgainst(t, "live engine after the vector writes", e.Exec, m.rows, universe)
		})
	}
}

// TestPKIndexShardCollision works one shard of the pk index: keys that
// hash to the same shard are added, moved and removed across versions,
// and every earlier version must keep answering as it did.
func TestPKIndexShardCollision(t *testing.T) {
	shard := func(v Value) int { return pkShard(pkHash(keyOf(v))) }
	vals, other := []Value{Int(0)}, Null // other: a key of some other shard
	for i := int64(1); len(vals) < 5 || other == Null; i++ {
		if shard(Int(i)) == shard(Int(0)) {
			vals = append(vals, Int(i))
		} else if other == Null {
			other = Int(i)
		}
	}
	var keys []hkey
	for _, v := range vals {
		keys = append(keys, keyOf(v))
	}
	expect := func(p pkIndex, name string, want map[hkey]int) {
		t.Helper()
		for _, v := range append(vals, other) {
			got, ok := p.find(v)
			w, wok := want[keyOf(v)]
			if ok != wok || got != w {
				t.Fatalf("%s: find(%v) = %d, %v; want %d, %v", name, v, got, ok, w, wok)
			}
		}
	}
	otherKey := keyOf(other)
	v0, n := pkIndex{}.insertAll([]hkey{keys[0], otherKey, keys[1], keys[2]}, 10)
	if n != 4 {
		t.Fatalf("insertAll stopped at %d", n)
	}
	w0 := map[hkey]int{keys[0]: 10, otherKey: 11, keys[1]: 12, keys[2]: 13}
	v1 := v0.del(keys[1])
	w1 := map[hkey]int{keys[0]: 10, otherKey: 11, keys[2]: 13}
	v2 := v1.set(keys[3], 20).set(keys[0], 21)
	w2 := map[hkey]int{keys[0]: 21, otherKey: 11, keys[2]: 13, keys[3]: 20}
	// A batch with two keys for the shard and a duplicate of a stored
	// key: everything before the duplicate goes in, nothing after.
	v3, n := v2.insertAll([]hkey{keys[1], keys[4], keys[2], otherKey}, 30)
	if n != 2 {
		t.Fatalf("insertAll with a duplicate stopped at %d, want 2", n)
	}
	w3 := map[hkey]int{keys[0]: 21, otherKey: 11, keys[2]: 13, keys[3]: 20, keys[1]: 30, keys[4]: 31}
	expect(v0, "v0", w0)
	expect(v1, "v1", w1)
	expect(v2, "v2", w2)
	expect(v3, "v3", w3)
	x, y := keyOf(Text("x")), keyOf(Text("y"))
	if _, n := v3.insertAll([]hkey{x, y, x}, 0); n != 2 {
		t.Fatalf("a key repeated inside the batch was accepted (stopped at %d)", n)
	}
}
