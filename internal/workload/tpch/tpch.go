// Package tpch generates a TPC-H-style decision-support workload: the
// full 8-table schema, a scaled data generator, and the 19 query classes
// the paper evaluates (queries 17, 20 and 21 are omitted, exactly as in
// Section 4.1, because the paper's PostgreSQL backends could not process
// them in reasonable time).
//
// The SQL is a simplified rendering of the TPC-H queries executable on
// the sqlmini engine: every query references the same tables as its
// TPC-H counterpart and a representative subset of its columns, which is
// what the classification (Section 3.1) consumes. Costs are relative
// execution times calibrated to the magnitudes a single PostgreSQL node
// shows at SF 1 (Q1/Q9/Q18 heavy; Q2/Q11 light). Two technical
// deviations from the genuine schema: partsupp and lineitem carry a
// synthetic single-column primary key (ps_key, l_key) because sqlmini
// indexes single-column keys only; dates are day numbers (0 =
// 1992-01-01).
package tpch

import (
	"fmt"
	"math/rand"
	"sort"

	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
)

// Schema returns the TPC-H schema, with the secondary indexes a DBA
// declares on the paper's PostgreSQL / MySQL backends (§4.1): one on
// every foreign key the 19 templates join through, so a join step that
// arrives with a few keys reads the rows they match and not the table
// (the engine still hash-joins when the keys cover the table);
// part(p_size), which Q2 and Q16 filter by; and the date columns the
// templates range over — lineitem(l_shipdate), lineitem(l_receiptdate),
// orders(o_orderdate) — so a scan with a date interval reads the rows
// inside it (the engine still scans when the interval covers a good
// part of the table, as Q1's does). The tables are read-only here, so
// each index is built once, lazily, and never dirtied.
func Schema() sqlmini.Schema {
	I, F, T := sqlmini.KindInt, sqlmini.KindFloat, sqlmini.KindText
	col := func(name string, k sqlmini.Kind) sqlmini.Column { return sqlmini.Column{Name: name, Type: k} }
	idx := func(name string) sqlmini.Column { return sqlmini.Column{Name: name, Type: I, Indexed: true} }
	pk := func(name string) sqlmini.Column { return sqlmini.Column{Name: name, Type: I, PrimaryKey: true} }
	return sqlmini.Schema{
		"region": {pk("r_regionkey"), col("r_name", T), col("r_comment", T)},
		"nation": {pk("n_nationkey"), col("n_name", T), col("n_regionkey", I), col("n_comment", T)},
		"supplier": {pk("s_suppkey"), col("s_name", T), col("s_address", T), idx("s_nationkey"),
			col("s_phone", T), col("s_acctbal", F), col("s_comment", T)},
		"customer": {pk("c_custkey"), col("c_name", T), col("c_address", T), idx("c_nationkey"),
			col("c_phone", T), col("c_acctbal", F), col("c_mktsegment", T), col("c_comment", T)},
		"part": {pk("p_partkey"), col("p_name", T), col("p_mfgr", T), col("p_brand", T), col("p_type", T),
			idx("p_size"), col("p_container", T), col("p_retailprice", F), col("p_comment", T)},
		"partsupp": {pk("ps_key"), idx("ps_partkey"), idx("ps_suppkey"), col("ps_availqty", I),
			col("ps_supplycost", F), col("ps_comment", T)},
		"orders": {pk("o_orderkey"), idx("o_custkey"), col("o_orderstatus", T), col("o_totalprice", F),
			idx("o_orderdate"), col("o_orderpriority", T), col("o_clerk", T), col("o_shippriority", I),
			col("o_comment", T)},
		"lineitem": {pk("l_key"), idx("l_orderkey"), idx("l_partkey"), idx("l_suppkey"),
			col("l_linenumber", I), col("l_quantity", F), col("l_extendedprice", F), col("l_discount", F),
			col("l_tax", F), col("l_returnflag", T), col("l_linestatus", T), idx("l_shipdate"),
			col("l_commitdate", I), idx("l_receiptdate"), col("l_shipinstruct", T), col("l_shipmode", T),
			col("l_comment", T)},
	}
}

// RowCounts returns the full-scale cardinalities at a TPC-H scale
// factor; the classification uses these to size fragments.
func RowCounts(sf float64) map[string]int64 {
	return map[string]int64{
		"region":   5,
		"nation":   25,
		"supplier": int64(10000 * sf),
		"customer": int64(150000 * sf),
		"part":     int64(200000 * sf),
		"partsupp": int64(800000 * sf),
		"orders":   int64(1500000 * sf),
		"lineitem": int64(6000000 * sf),
	}
}

// MaxDate is the exclusive upper bound of the day-number date domain
// (seven years starting 1992-01-01).
const MaxDate = 2556

var (
	segments  = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	brands    = []string{"Brand#11", "Brand#12", "Brand#23", "Brand#34", "Brand#45"}
	types     = []string{"PROMO BURNISHED COPPER", "ECONOMY ANODIZED STEEL", "STANDARD POLISHED TIN", "MEDIUM PLATED BRASS", "SMALL BRUSHED NICKEL"}
	shipmodes = []string{"AIR", "REG AIR", "MAIL", "SHIP", "TRUCK", "RAIL", "FOB"}
	regions   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	flags     = []string{"A", "N", "R"}
	status    = []string{"F", "O", "P"}
)

// Load generates and bulk-loads the listed tables (nil means all) into
// the engine. rows gives the actual cardinality per table — typically
// RowCounts(sf) scaled down by a load factor so tests and examples run
// quickly while the classification still sees full-scale sizes.
func Load(e *sqlmini.Engine, tables []string, rows map[string]int64, seed int64) error {
	schema := Schema()
	if tables == nil {
		for t := range schema {
			tables = append(tables, t)
		}
		// Tables are loaded sequentially off one seeded rng stream, so
		// load order must not depend on map iteration order or every
		// table's generated rows would differ between runs.
		sort.Strings(tables)
	}
	want := make(map[string]bool, len(tables))
	for _, t := range tables {
		if _, ok := schema[t]; !ok {
			return fmt.Errorf("tpch: unknown table %q", t)
		}
		want[t] = true
	}
	rng := rand.New(rand.NewSource(seed))
	n := func(table string, def int64) int64 {
		if v, ok := rows[table]; ok && v > 0 {
			return v
		}
		return def
	}
	gen := map[string]func(i int64) sqlmini.Row{
		"region": func(i int64) sqlmini.Row {
			return sqlmini.Row{sqlmini.Int(i), sqlmini.Text(regions[i%int64(len(regions))]), sqlmini.Text("rc")}
		},
		"nation": func(i int64) sqlmini.Row {
			return sqlmini.Row{sqlmini.Int(i), sqlmini.Text(fmt.Sprintf("NATION%02d", i)), sqlmini.Int(i % 5), sqlmini.Text("nc")}
		},
		"supplier": func(i int64) sqlmini.Row {
			return sqlmini.Row{sqlmini.Int(i), sqlmini.Text(fmt.Sprintf("Supplier#%09d", i)), sqlmini.Text("addr"),
				sqlmini.Int(i % 25), sqlmini.Text(fmt.Sprintf("27-%07d", i)), sqlmini.Float(rng.Float64()*11000 - 1000),
				sqlmini.Text("sc")}
		},
		"customer": func(i int64) sqlmini.Row {
			return sqlmini.Row{sqlmini.Int(i), sqlmini.Text(fmt.Sprintf("Customer#%09d", i)), sqlmini.Text("addr"),
				sqlmini.Int(i % 25), sqlmini.Text(fmt.Sprintf("13-%07d", i)), sqlmini.Float(rng.Float64()*11000 - 1000),
				sqlmini.Text(segments[rng.Intn(len(segments))]), sqlmini.Text("cc")}
		},
		"part": func(i int64) sqlmini.Row {
			name := "steel blue"
			if rng.Intn(20) == 0 {
				name = "forest green metallic"
			}
			return sqlmini.Row{sqlmini.Int(i), sqlmini.Text(name), sqlmini.Text("Manufacturer#1"),
				sqlmini.Text(brands[rng.Intn(len(brands))]), sqlmini.Text(types[rng.Intn(len(types))]),
				sqlmini.Int(int64(rng.Intn(50) + 1)), sqlmini.Text("JUMBO PKG"), sqlmini.Float(900 + rng.Float64()*200),
				sqlmini.Text("pc")}
		},
	}
	simple := []string{"region", "nation", "supplier", "customer", "part"}
	defaults := map[string]int64{"region": 5, "nation": 25, "supplier": 100, "customer": 300, "part": 400}
	counts := make(map[string]int64)
	for _, t := range simple {
		counts[t] = n(t, defaults[t])
	}
	counts["partsupp"] = n("partsupp", 4*counts["part"])
	counts["orders"] = n("orders", 3*counts["customer"])
	counts["lineitem"] = n("lineitem", 4*counts["orders"])

	load := func(table string, mk func(i int64) sqlmini.Row) error {
		if !want[table] {
			return nil
		}
		if e.Table(table) == nil {
			if err := e.CreateTable(table, schema[table]); err != nil {
				return err
			}
		}
		batch := make([]sqlmini.Row, 0, 1024)
		for i := int64(0); i < counts[table]; i++ {
			batch = append(batch, mk(i))
			if len(batch) == cap(batch) {
				if err := e.BulkInsert(table, batch); err != nil {
					return err
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			return e.BulkInsert(table, batch)
		}
		return nil
	}
	for _, t := range simple {
		if err := load(t, gen[t]); err != nil {
			return err
		}
	}
	if err := load("partsupp", func(i int64) sqlmini.Row {
		return sqlmini.Row{sqlmini.Int(i), sqlmini.Int(i % counts["part"]), sqlmini.Int(i % counts["supplier"]),
			sqlmini.Int(int64(rng.Intn(9999) + 1)), sqlmini.Float(rng.Float64() * 1000), sqlmini.Text("psc")}
	}); err != nil {
		return err
	}
	if err := load("orders", func(i int64) sqlmini.Row {
		return sqlmini.Row{sqlmini.Int(i), sqlmini.Int(i % counts["customer"]), sqlmini.Text(status[rng.Intn(len(status))]),
			sqlmini.Float(1000 + rng.Float64()*450000), sqlmini.Int(int64(rng.Intn(MaxDate))),
			sqlmini.Text(fmt.Sprintf("%d-PRIORITY", rng.Intn(5)+1)), sqlmini.Text("clerk"), sqlmini.Int(0),
			sqlmini.Text("oc")}
	}); err != nil {
		return err
	}
	return loadLineitem(e, want, counts, rng, load)
}

// loadLineitem generates the fact table (split out to keep Load
// readable).
func loadLineitem(e *sqlmini.Engine, want map[string]bool, counts map[string]int64,
	rng *rand.Rand, load func(string, func(int64) sqlmini.Row) error) error {
	return load("lineitem", func(i int64) sqlmini.Row {
		ship := int64(rng.Intn(MaxDate))
		return sqlmini.Row{sqlmini.Int(i), sqlmini.Int(i % counts["orders"]), sqlmini.Int(i % counts["part"]),
			sqlmini.Int(i % counts["supplier"]), sqlmini.Int(i % 7), sqlmini.Float(float64(rng.Intn(50) + 1)),
			sqlmini.Float(900 + rng.Float64()*100000), sqlmini.Float(float64(rng.Intn(11)) / 100),
			sqlmini.Float(float64(rng.Intn(9)) / 100), sqlmini.Text(flags[rng.Intn(len(flags))]),
			sqlmini.Text(status[rng.Intn(2)]), sqlmini.Int(ship), sqlmini.Int(ship + int64(rng.Intn(30))),
			sqlmini.Int(ship + int64(rng.Intn(60))), sqlmini.Text("DELIVER IN PERSON"),
			sqlmini.Text(shipmodes[rng.Intn(len(shipmodes))]), sqlmini.Text("lc")}
	})
}

// querySpec pairs a query with its relative cost (calibrated execution
// time share).
type querySpec struct {
	name string
	sql  string
	cost float64
}

// querySpecs lists the 19 evaluated TPC-H queries (17, 20, 21 omitted
// per Section 4.1).
func querySpecs() []querySpec {
	return []querySpec{
		{"q1", `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base, AVG(l_discount) AS avg_disc, COUNT(*) AS count_order FROM lineitem WHERE l_shipdate <= 2458 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, 25},
		{"q2", `SELECT s_acctbal, s_name, n_name, p_partkey FROM part JOIN partsupp ON ps_partkey = p_partkey JOIN supplier ON s_suppkey = ps_suppkey JOIN nation ON n_nationkey = s_nationkey JOIN region ON r_regionkey = n_regionkey WHERE p_size = 15 AND r_name = 'EUROPE' ORDER BY s_acctbal DESC LIMIT 100`, 3},
		{"q3", `SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, o_shippriority FROM customer JOIN orders ON o_custkey = c_custkey JOIN lineitem ON l_orderkey = o_orderkey WHERE c_mktsegment = 'BUILDING' AND o_orderdate < 1150 AND l_shipdate > 1150 GROUP BY l_orderkey, o_orderdate, o_shippriority ORDER BY revenue DESC LIMIT 10`, 10},
		{"q4", `SELECT o_orderpriority, COUNT(*) AS order_count FROM orders JOIN lineitem ON l_orderkey = o_orderkey WHERE o_orderdate >= 700 AND o_orderdate < 790 AND l_commitdate < l_receiptdate GROUP BY o_orderpriority ORDER BY o_orderpriority`, 8},
		{"q5", `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM customer JOIN orders ON o_custkey = c_custkey JOIN lineitem ON l_orderkey = o_orderkey JOIN supplier ON s_suppkey = l_suppkey JOIN nation ON n_nationkey = s_nationkey JOIN region ON r_regionkey = n_regionkey WHERE r_name = 'ASIA' AND o_orderdate >= 365 AND o_orderdate < 730 GROUP BY n_name ORDER BY revenue DESC`, 10},
		{"q6", `SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_shipdate >= 365 AND l_shipdate < 730 AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`, 6},
		{"q7", `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM supplier JOIN lineitem ON l_suppkey = s_suppkey JOIN orders ON o_orderkey = l_orderkey JOIN customer ON c_custkey = o_custkey JOIN nation ON n_nationkey = s_nationkey WHERE l_shipdate BETWEEN 1095 AND 1825 GROUP BY n_name`, 12},
		{"q8", `SELECT o_orderdate, SUM(l_extendedprice * (1 - l_discount)) AS volume FROM part JOIN lineitem ON l_partkey = p_partkey JOIN supplier ON s_suppkey = l_suppkey JOIN orders ON o_orderkey = l_orderkey JOIN customer ON c_custkey = o_custkey JOIN nation ON n_nationkey = c_nationkey JOIN region ON r_regionkey = n_regionkey WHERE r_name = 'AMERICA' AND p_type = 'ECONOMY ANODIZED STEEL' GROUP BY o_orderdate ORDER BY o_orderdate`, 10},
		{"q9", `SELECT n_name, SUM(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) AS profit FROM part JOIN lineitem ON l_partkey = p_partkey JOIN supplier ON s_suppkey = l_suppkey JOIN partsupp ON ps_suppkey = l_suppkey JOIN nation ON n_nationkey = s_nationkey WHERE ps_partkey = l_partkey AND p_name LIKE '%green%' GROUP BY n_name`, 30},
		{"q10", `SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue, n_name FROM customer JOIN orders ON o_custkey = c_custkey JOIN lineitem ON l_orderkey = o_orderkey JOIN nation ON n_nationkey = c_nationkey WHERE o_orderdate >= 800 AND o_orderdate < 890 AND l_returnflag = 'R' GROUP BY c_custkey, c_name, n_name ORDER BY revenue DESC LIMIT 20`, 10},
		{"q11", `SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value FROM partsupp JOIN supplier ON s_suppkey = ps_suppkey JOIN nation ON n_nationkey = s_nationkey WHERE n_name = 'NATION07' GROUP BY ps_partkey ORDER BY value DESC LIMIT 100`, 2},
		{"q12", `SELECT l_shipmode, COUNT(*) AS line_count FROM orders JOIN lineitem ON l_orderkey = o_orderkey WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate AND l_receiptdate >= 365 AND l_receiptdate < 730 GROUP BY l_shipmode ORDER BY l_shipmode`, 8},
		{"q13", `SELECT c_custkey, COUNT(*) AS c_count FROM customer JOIN orders ON o_custkey = c_custkey GROUP BY c_custkey ORDER BY c_count DESC LIMIT 100`, 15},
		{"q14", `SELECT SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue FROM lineitem JOIN part ON p_partkey = l_partkey WHERE l_shipdate >= 900 AND l_shipdate < 930 AND p_type LIKE 'PROMO%'`, 6},
		{"q15", `SELECT l_suppkey, SUM(l_extendedprice * (1 - l_discount)) AS total_revenue FROM supplier JOIN lineitem ON l_suppkey = s_suppkey WHERE l_shipdate >= 1000 AND l_shipdate < 1090 GROUP BY l_suppkey ORDER BY total_revenue DESC LIMIT 1`, 7},
		{"q16", `SELECT p_brand, p_type, p_size, COUNT(DISTINCT ps_suppkey) AS supplier_cnt FROM partsupp JOIN part ON p_partkey = ps_partkey WHERE p_brand <> 'Brand#45' AND p_size IN (9, 14, 23, 45, 19, 3, 36, 49) GROUP BY p_brand, p_type, p_size ORDER BY supplier_cnt DESC LIMIT 100`, 4},
		{"q18", `SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, SUM(l_quantity) AS total_qty FROM customer JOIN orders ON o_custkey = c_custkey JOIN lineitem ON l_orderkey = o_orderkey GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice ORDER BY o_totalprice DESC LIMIT 100`, 25},
		{"q19", `SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem JOIN part ON p_partkey = l_partkey WHERE p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5 AND l_shipmode IN ('AIR', 'REG AIR')`, 5},
		{"q22", `SELECT c_phone, COUNT(*) AS numcust, SUM(c_acctbal) AS totacctbal FROM customer JOIN orders ON o_custkey = c_custkey WHERE c_acctbal > 5000.0 GROUP BY c_phone ORDER BY totacctbal DESC LIMIT 20`, 4},
	}
}

// Queries returns the 19 read-only query templates with equal frequency
// (the official qgen issues each query once per stream) and calibrated
// relative costs. Like qgen, a few templates vary their substitution
// parameters per instance (dates, segments, brands); the canonical
// Journal text is what classification sees, and parameter variation
// never changes a query's fragment set.
func Queries() []workload.Template {
	specs := querySpecs()
	out := make([]workload.Template, len(specs))
	for i, s := range specs {
		out[i] = workload.Template{
			Name:    s.name,
			Journal: s.sql,
			Freq:    1,
			Cost:    s.cost,
			Gen:     genFor(s.name),
		}
	}
	return out
}

// genFor returns the qgen-style parameter generator for a template, or
// nil when the canonical text is always used.
func genFor(name string) func(rng *rand.Rand) string {
	switch name {
	case "q1":
		return func(rng *rand.Rand) string {
			delta := 60 + rng.Intn(60)
			return fmt.Sprintf(`SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base, AVG(l_discount) AS avg_disc, COUNT(*) AS count_order FROM lineitem WHERE l_shipdate <= %d GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, MaxDate-delta)
		}
	case "q3":
		return func(rng *rand.Rand) string {
			seg := segments[rng.Intn(len(segments))]
			date := 1000 + rng.Intn(400)
			return fmt.Sprintf(`SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, o_shippriority FROM customer JOIN orders ON o_custkey = c_custkey JOIN lineitem ON l_orderkey = o_orderkey WHERE c_mktsegment = '%s' AND o_orderdate < %d AND l_shipdate > %d GROUP BY l_orderkey, o_orderdate, o_shippriority ORDER BY revenue DESC LIMIT 10`, seg, date, date)
		}
	case "q6":
		return func(rng *rand.Rand) string {
			start := 365 * (1 + rng.Intn(5))
			disc := 0.02 + float64(rng.Intn(8))/100
			qty := 24 + rng.Intn(2)
			return fmt.Sprintf(`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_shipdate >= %d AND l_shipdate < %d AND l_discount BETWEEN %.2f AND %.2f AND l_quantity < %d`, start, start+365, disc, disc+0.02, qty)
		}
	case "q14":
		return func(rng *rand.Rand) string {
			start := 30 * rng.Intn(80)
			return fmt.Sprintf(`SELECT SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue FROM lineitem JOIN part ON p_partkey = l_partkey WHERE l_shipdate >= %d AND l_shipdate < %d AND p_type LIKE 'PROMO%%'`, start, start+30)
		}
	case "q19":
		return func(rng *rand.Rand) string {
			brand := brands[rng.Intn(len(brands))]
			q := 1 + rng.Intn(10)
			return fmt.Sprintf(`SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem JOIN part ON p_partkey = l_partkey WHERE p_brand = '%s' AND l_quantity BETWEEN %d AND %d AND p_size BETWEEN 1 AND 5 AND l_shipmode IN ('AIR', 'REG AIR')`, brand, q, q+10)
		}
	}
	return nil
}

// Mix returns the read-only TPC-H workload sampler.
func Mix() (*workload.Mix, error) {
	return workload.NewMix(Queries())
}
