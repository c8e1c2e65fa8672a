package sqlmini_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
	"qcpa/internal/workload/tpcapp"
	"qcpa/internal/workload/tpch"
)

// orderSeed fixes the data and the template parameters of the ordered
// digests below.
const orderSeed = 1

// loadTPCH returns an engine holding TPC-H at SF 0.01, the size the
// repository's benchmark runs tpch-analytic at.
func loadTPCH(tb testing.TB) *sqlmini.Engine {
	tb.Helper()
	e := sqlmini.New()
	if err := tpch.Load(e, nil, tpch.RowCounts(0.01), orderSeed); err != nil {
		tb.Fatal(err)
	}
	return e
}

// instances renders every template's canonical text plus, where the
// template varies its parameters, two seeded variants.
func instances(templates []workload.Template) (names, sqls []string) {
	rng := rand.New(rand.NewSource(orderSeed))
	for _, t := range templates {
		if t.Write {
			continue
		}
		names, sqls = append(names, t.Name), append(sqls, t.Journal)
		for v := 1; t.Gen != nil && v <= 2; v++ {
			names, sqls = append(names, fmt.Sprintf("%s#%d", t.Name, v)), append(sqls, t.Gen(rng))
		}
	}
	return names, sqls
}

// orderedDigest hashes a result in row order: column names, then every
// value with its kind. Two results digest equal only if they hold the
// same rows in the same order, floats bit for bit.
func orderedDigest(res *sqlmini.Result) string {
	h := fnv.New64a()
	for _, c := range res.Columns {
		fmt.Fprintf(h, "%s\x1f", c)
	}
	for _, r := range res.Rows {
		h.Write([]byte{'\n'})
		for _, v := range r {
			fmt.Fprintf(h, "%d:%s\x1f", v.K, v.String())
		}
	}
	return fmt.Sprintf("%d/%016x", len(res.Rows), h.Sum64())
}

// joinOrderGolden is the ordered digest of every template instance. Row
// order without an ORDER BY, the rows a LIMIT keeps, and the summation
// order behind every float aggregate are part of the engine's
// observable behaviour: replicas and the benchmark's reference engine
// must agree on all three, so a change that moves one re-records it
// here on purpose. Recorded at commit a3f099b (the last executor that
// concatenated joined rows) and reproduced by the late-materialized
// one; the index-join planner re-recorded q2, q5, q8, q9, q10, q14 and
// q19 — the templates whose join order or access changed the order
// rows meet an aggregate or a LIMIT in — after the multiset golden
// below, recorded before it, passed unedited. The ordered index access
// re-recorded q5 and q14, the two whose join order it changed (both now
// start from the date interval: orders' in q5, lineitem's in q14), so
// their float sums add in another order; again the multiset golden
// passed unedited first. newProducts, now an ordered walk, kept its
// digest: its ties were in item position order before, too.
var joinOrderGolden = map[string]string{
	"q1":              "6/fefc07c5e37550c9",
	"q1#1":            "6/f9f2759a78431ee7",
	"q1#2":            "6/f5320d4de0e5dca2",
	"q2":              "36/855fc56d07d50e4f",
	"q3":              "10/5e17a0ac56b206dd",
	"q3#1":            "10/d86f921c2f6a9f82",
	"q3#2":            "10/7547e35b8228884c",
	"q4":              "5/3711b5b0df674932",
	"q5":              "5/887fd654be42bc8d",
	"q6":              "1/123962b9422e56c8",
	"q6#1":            "1/fef25b3656c01469",
	"q6#2":            "1/36a4bb9030c5994d",
	"q7":              "25/640a241a8ead3813",
	"q8":              "927/827606b8d698b030",
	"q9":              "24/0e33188c14412099",
	"q10":             "20/c9dec363aae04521",
	"q11":             "80/c5687f8c0c02d23b",
	"q12":             "2/9a85f0933b3cf8f2",
	"q13":             "100/632092fde9fa34f6",
	"q14":             "1/48d0f6b716db2139",
	"q14#1":           "1/1fa9939778e19e97",
	"q14#2":           "1/efc0cbd1dedda63b",
	"q15":             "1/c8311ac1834beb44",
	"q16":             "100/45001aa11175d4c5",
	"q18":             "100/51d957c3d7b8d038",
	"q19":             "1/4601cb2ab7801417",
	"q19#1":           "1/77038c795ba9e860",
	"q19#2":           "1/3381053eadeee342",
	"q22":             "20/23941c1a33d712d0",
	"newProducts":     "50/fb38b83c81128280",
	"orderStatus":     "3/f3adf7bca3343404",
	"orderStatus#1":   "3/6c952b4ff49f34a8",
	"orderStatus#2":   "3/abbad8777e8551af",
	"customerLogin":   "1/6074b4a7b2c8b67d",
	"customerLogin#1": "1/593c2a84c3bc603f",
	"customerLogin#2": "1/e7d9f8af948a135d",
	"searchSubject":   "50/5d55d8ecb1a33ced",
	"searchSubject#1": "50/25821661b046d313",
	"searchSubject#2": "50/b62958f2181f0dca",
	"searchTitle":     "50/84f4342b280d6f2d",
}

// multisetDigest hashes a result as a bag of rows: column names, then
// the rendered rows in sorted order, floats rounded to 9 significant
// digits. It does not move when a plan change reorders the rows or the
// additions behind a float sum; it does move when a row is lost, gained
// or different.
func multisetDigest(res *sqlmini.Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var sb strings.Builder
		for _, v := range r {
			if v.K == sqlmini.KindFloat {
				fmt.Fprintf(&sb, "%d:%s\x1f", v.K, strconv.FormatFloat(v.F, 'e', 8, 64))
			} else {
				fmt.Fprintf(&sb, "%d:%s\x1f", v.K, v.String())
			}
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	h := fnv.New64a()
	for _, c := range res.Columns {
		fmt.Fprintf(h, "%s\x1f", c)
	}
	for _, r := range rows {
		fmt.Fprintf(h, "\n%s", r)
	}
	return fmt.Sprintf("%d/%016x", len(res.Rows), h.Sum64())
}

// multisetGoldenFile holds "<instance> <multisetDigest>" lines as the
// engine of commit c14790f produced them — the last one whose join
// steps reached every table by scanning it. A planner or executor
// change re-records the ordered golden above when it reorders rows; it
// never edits this file.
const multisetGoldenFile = "testdata/join_multiset.golden"

var recordMultiset = flag.Bool("record-multiset", false, "rewrite "+multisetGoldenFile+" from this engine's results")

// goldenSuites runs every instance the two goldens cover and hands its
// name, text and result to check.
func goldenSuites(t *testing.T, check func(name, sql string, res *sqlmini.Result)) {
	app := sqlmini.New()
	if err := tpcapp.Load(app, nil, tpcapp.RowCounts(1), orderSeed); err != nil {
		t.Fatal(err)
	}
	appMix, err := tpcapp.Mix(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, suite := range []struct {
		e         *sqlmini.Engine
		templates []workload.Template
	}{
		{loadTPCH(t), tpch.Queries()},
		{app, appMix.Templates()},
	} {
		names, sqls := instances(suite.templates)
		for i, sql := range sqls {
			res, err := suite.e.Exec(sql)
			if err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
			check(names[i], sql, res)
		}
	}
}

// TestJoinOutputOrderUnchanged pins the ordered results of all 19 TPC-H
// templates and the TPC-App read templates to the golden above.
func TestJoinOutputOrderUnchanged(t *testing.T) {
	goldenSuites(t, func(name, sql string, res *sqlmini.Result) {
		if got := orderedDigest(res); got != joinOrderGolden[name] {
			t.Errorf("%s: ordered digest %s, golden %s\n%s", name, got, joinOrderGolden[name], sql)
		}
	})
}

// TestJoinOutputMultisetUnchanged holds the same instances to the bag
// of rows the parent of the index-join change returned.
func TestJoinOutputMultisetUnchanged(t *testing.T) {
	if *recordMultiset {
		var sb strings.Builder
		goldenSuites(t, func(name, _ string, res *sqlmini.Result) {
			fmt.Fprintf(&sb, "%s %s\n", name, multisetDigest(res))
		})
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(multisetGoldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(multisetGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			golden[name] = digest
		}
	}
	seen := 0
	goldenSuites(t, func(name, sql string, res *sqlmini.Result) {
		seen++
		if got := multisetDigest(res); got != golden[name] {
			t.Errorf("%s: multiset digest %s, golden %s\n%s", name, got, golden[name], sql)
		}
	})
	if seen != len(golden) {
		t.Errorf("%d instances ran, golden holds %d", seen, len(golden))
	}
}

// shapesGoldenFile holds Engine.Explain of every read template: join
// order, access per step, pushed-down filters, estimated rows. No clock:
// a plan change shows here as a diff, whatever the machine.
const shapesGoldenFile = "testdata/plan_shapes.golden"

var recordShapes = flag.Bool("record-shapes", false, "rewrite "+shapesGoldenFile+" from this planner's plans")

// TestPlanShapes pins the plans of the 19 TPC-H templates at SF 0.01
// and the 5 TPC-App reads at EB 3 — the sizes the benchmark runs them
// at — to the golden, and holds them to what the index-join planner and
// the ordered index access are for, whatever the golden says.
func TestPlanShapes(t *testing.T) {
	app := sqlmini.New()
	if err := tpcapp.Load(app, nil, tpcapp.RowCounts(3), orderSeed); err != nil {
		t.Fatal(err)
	}
	appMix, err := tpcapp.Mix(3)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	steps := map[string][]string{} // template -> access of each step ("lineitem: probe index(l_partkey)")
	rows := map[string][]float64{} // template -> estimated rows after each step
	for _, suite := range []struct {
		e         *sqlmini.Engine
		templates []workload.Template
	}{
		{loadTPCH(t), tpch.Queries()},
		{app, appMix.Templates()},
	} {
		for _, tpl := range suite.templates {
			if tpl.Write {
				continue
			}
			plan, err := suite.e.Explain(tpl.Journal)
			if err != nil {
				t.Fatalf("%s: %v", tpl.Name, err)
			}
			fmt.Fprintf(&sb, "== %s\n%s", tpl.Name, plan)
			for _, line := range strings.Split(strings.TrimSuffix(plan, "\n"), "\n") {
				// The filters open at the last " [": an interval has one of its own.
				steps[tpl.Name] = append(steps[tpl.Name], line[:strings.LastIndex(line, " [")])
				est, err := strconv.ParseFloat(line[strings.LastIndex(line, "~")+1:], 64)
				if err != nil {
					t.Fatalf("%s: no estimate in %q", tpl.Name, line)
				}
				rows[tpl.Name] = append(rows[tpl.Name], est)
			}
		}
	}
	if len(steps) != 19+5 {
		t.Fatalf("%d templates planned, want 24", len(steps))
	}
	if *recordShapes {
		if err := os.WriteFile(shapesGoldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if golden, err := os.ReadFile(shapesGoldenFile); err != nil {
		t.Fatal(err)
	} else if sb.String() != string(golden) {
		t.Errorf("plans differ from %s (re-record with -record-shapes if intended); now:\n%s", shapesGoldenFile, sb.String())
	}

	// Every template's join graph is connected, so no step may be
	// keyless: q8 with supplier as a cross product carries 300,000 tuples.
	for name, accesses := range steps {
		for _, a := range accesses {
			if strings.HasSuffix(a, ": cross") {
				t.Errorf("%s: keyless step %q in %q", name, a, accesses)
			}
		}
	}
	every := func(name string, from int, ok func(access string) bool, what string) {
		t.Helper()
		for _, a := range steps[name][from:] {
			if _, access, _ := strings.Cut(a, ": "); !ok(access) {
				t.Errorf("%s: step %q, want every step from %d on %s: %q", name, a, from, what, steps[name])
			}
		}
	}
	probes := func(a string) bool { return strings.HasPrefix(a, "probe ") }
	// A point read scans nothing: a pk probe by the constant, then index
	// probes (the parent read all 8,640 orders for one customer's three).
	for _, name := range []string{"orderStatus", "customerLogin"} {
		every(name, 0, func(a string) bool { return a == "pk=" || probes(a) }, "a pk= or a probe")
	}
	// Where the prefix covers every key of the probed column the probes
	// would read the whole table through the index: these keep the hash join.
	for _, name := range []string{"q13", "q15", "q18"} {
		every(name, 1, func(a string) bool { return strings.HasPrefix(a, "hash") }, "a hash join")
	}
	// Selective prefixes probe all the way. (q14 does at run time — its 30
	// days of lineitem are 680 rows — but the model's guess for any two-ended
	// interval, 9 % of the table, is above part's 2,000 keys.)
	for _, name := range []string{"q3", "q4", "q11", "q16", "q19", "q22"} {
		every(name, 1, probes, "a probe")
	}
	// An interval of an indexed date column is read through the index where
	// the model expects a small run, and from there on by probes: q4 and q10
	// no longer scan orders, q6, q12, q14 and q15 no longer scan lineitem.
	// q1 keeps 96 % of lineitem: it stays a scan.
	for _, name := range []string{"q4", "q5", "q6", "q10", "q12", "q14", "q15"} {
		if first := steps[name][0]; !strings.Contains(first, ": index(") || !strings.Contains(first, " in [?, ?) (run < ") {
			t.Errorf("%s starts from %q, want the interval of a date index", name, first)
		}
	}
	if first := steps["q1"][0]; !strings.HasPrefix(first, "lineitem: full") {
		t.Errorf("q1 starts from %q, want a full scan of lineitem", first)
	}
	// The 50 newest products are the first 50 entries of the date index,
	// each probing its author; searching stops at the fiftieth hit.
	if got, want := steps["newProducts"], []string{"item: index(i_pub_date) in (?, +inf) desc limit 50", "author: probe pk (prefix < 2500)"}; !slices.Equal(got, want) {
		t.Errorf("newProducts runs as %q, want %q", got, want)
	}
	for name, want := range map[string]string{"searchSubject": "item: index(i_subject)= limit 50", "searchTitle": "item: full limit 50"} {
		if got := steps[name]; len(got) != 1 || got[0] != want {
			t.Errorf("%s runs as %q, want %q", name, got, want)
		}
	}
	if first := steps["q9"][0]; !strings.HasPrefix(first, "part: ") {
		t.Errorf("q9 starts from %q, want part", first)
	}
	// No intermediate of q8's 7 tables comes near the 300,000 tuples of
	// an order that takes supplier as a cross product.
	for i, est := range rows["q8"] {
		if est > 20000 {
			t.Errorf("q8: step %q expects %g tuples", steps["q8"][i], est)
		}
	}
}

// TestTPCHGroupKeys pins the group keys the pk rule (groupKey) leaves
// of the templates it reduces: q3's orders, q18's customer and q10's
// nation are determined through join key pairs (l_orderkey =
// o_orderkey, o_custkey = c_custkey, n_nationkey = c_nationkey), so each
// groups by one INT column.
func TestTPCHGroupKeys(t *testing.T) {
	e := sqlmini.New()
	if err := tpch.Load(e, nil, tpch.RowCounts(0.0002), orderSeed); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"q3": "[l_orderkey]", "q18": "[o_orderkey]", "q10": "[c_custkey]"}
	for _, q := range tpch.Queries() {
		w, ok := want[q.Name]
		if !ok {
			continue
		}
		key, err := sqlmini.GroupKey(e, q.Journal)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if got := fmt.Sprint(key); got != w {
			t.Errorf("%s groups by %s, want %s", q.Name, got, w)
		}
		delete(want, q.Name)
	}
	if len(want) > 0 {
		t.Errorf("templates not found: %v", want)
	}
}

// benchStatements runs each named statement as its own sub-benchmark on
// warm plans, then all of them as "pass". Beside ns, B and allocs it
// reports the rows scanned and the collections run (runtime.NumGC) per
// op.
func benchStatements(b *testing.B, e *sqlmini.Engine, names, sqls []string) {
	stmts := make([]sqlmini.Statement, len(sqls))
	for i, sql := range sqls {
		st, err := sqlmini.Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		stmts[i] = st
		if _, err := e.ExecStmt(st); err != nil {
			b.Fatal(err)
		}
	}
	run := func(name string, stmts []sqlmini.Statement) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var scanned int64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scanned = 0
				for _, st := range stmts {
					res, err := e.ExecStmt(st)
					if err != nil {
						b.Fatal(err)
					}
					scanned += res.Scanned
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(scanned), "scanned/op")
			b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
		})
	}
	for i, name := range names {
		run(name, stmts[i:i+1])
	}
	run("pass", stmts)
}

// BenchmarkTPCHPass runs the 19 TPC-H templates at SF 0.01 on one
// engine with warm plans: each as BenchmarkTPCHPass/<template>, and
// one pass of all of them — the unit of work of the tpch-analytic
// workload — as BenchmarkTPCHPass/pass.
func BenchmarkTPCHPass(b *testing.B) {
	var names, sqls []string
	for _, q := range tpch.Queries() {
		names, sqls = append(names, q.Name), append(sqls, q.Journal)
	}
	benchStatements(b, loadTPCH(b), names, sqls)
}

// BenchmarkTPCAppReads runs the TPC-App read templates at EB 3, the
// size tpcapp-mixed runs at.
func BenchmarkTPCAppReads(b *testing.B) {
	e := sqlmini.New()
	if err := tpcapp.Load(e, nil, tpcapp.RowCounts(3), orderSeed); err != nil {
		b.Fatal(err)
	}
	mix, err := tpcapp.Mix(3)
	if err != nil {
		b.Fatal(err)
	}
	var names, sqls []string
	for _, t := range mix.Templates() {
		if !t.Write {
			names, sqls = append(names, t.Name), append(sqls, t.Journal)
		}
	}
	benchStatements(b, e, names, sqls)
}

// BenchmarkParse times Parse alone — lexing, the tree and the
// plan-cache key — one text per op, over a generated instance of each
// TPC-App read at EB 3 and each TPC-H template.
func BenchmarkParse(b *testing.B) {
	mix, err := tpcapp.Mix(3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(orderSeed))
	var sqls []string
	for _, t := range slices.Concat(mix.Templates(), tpch.Queries()) {
		switch {
		case t.Write:
		case t.Gen == nil:
			sqls = append(sqls, t.Journal)
		default:
			sqls = append(sqls, t.Gen(rng))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlmini.Parse(sqls[i%len(sqls)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanKernels times what the column vectors are read by, over
// lineitem at SF 0.01: a four-conjunct filter that keeps few rows, the
// same under SUM of a bare column, and a GROUP BY on an integer key.
// ns/row is per row of the table (every statement reads all of them).
func BenchmarkScanKernels(b *testing.B) {
	e := loadTPCH(b)
	rows := float64(e.Table("lineitem").NumRows())
	for _, bc := range []struct{ name, sql string }{
		{"filter", `SELECT l_key FROM lineitem WHERE l_commitdate >= 365 AND l_commitdate < 730 AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`},
		{"filter+aggregate", `SELECT SUM(l_extendedprice), AVG(l_quantity), COUNT(l_tax) FROM lineitem WHERE l_commitdate >= 365 AND l_discount BETWEEN 0.02 AND 0.09`},
		{"group-by-int", `SELECT l_linenumber, SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_linenumber`},
	} {
		st, err := sqlmini.Parse(bc.sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.ExecStmt(st); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
