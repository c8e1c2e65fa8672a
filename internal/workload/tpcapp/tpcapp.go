// Package tpcapp implements the update-heavy online-bookseller workload
// of Section 4.2: a custom TPC-App-style benchmark whose web-service
// interactions are re-implemented as SQL templates.
//
// The template frequencies and costs are constructed so that the
// workload statistics the paper reports all hold exactly:
//
//   - the read:write request-count ratio is 1:7 (12.5% reads);
//   - the reads produce 3× the workload weight of the updates (75%/25%);
//   - one complex read class ("new products") generates 50% of the
//     workload weight from only 1.5% of the requests;
//   - the Order_Line write class carries 13% of the weight, making
//     Eq. 30's maximum speedup 10/1.3 = 7.7 on ten backends;
//   - table-based classification yields 8 query classes and
//     column-based classification yields 10.
//
// Scaling follows the benchmark's EB (emulated browsers) parameter:
// EB = 300 is the paper's standard run (~280 MB), EB = 12000 the
// large-scale run (~8 GB). LargeMix additionally triples the update
// costs, reproducing the ~1:1 read/update weight ratio of Figure 4(i).
package tpcapp

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
)

// Schema returns the bookseller schema (7 tables) with its three
// secondary indexes: item(i_subject), which the search interaction
// filters by; item(i_pub_date), in whose order newProducts wants the 50
// newest titles, so it reads those and not the table; and
// orders(o_c_id), through which orderStatus reaches one customer's
// orders instead of scanning them all. All three sit on columns no
// update template assigns, in tables that take no INSERT, so a round of
// updates leaves them built. order_line still has none:
// order_line(ol_o_id) is left out on purpose, because the table takes
// the mix's INSERTs, every insert dirties a lazily built index, and no
// read template joins through it or ranges over it.
func Schema() sqlmini.Schema {
	I, F, T := sqlmini.KindInt, sqlmini.KindFloat, sqlmini.KindText
	col := func(name string, k sqlmini.Kind) sqlmini.Column { return sqlmini.Column{Name: name, Type: k} }
	idx := func(name string, k sqlmini.Kind) sqlmini.Column {
		return sqlmini.Column{Name: name, Type: k, Indexed: true}
	}
	pk := func(name string) sqlmini.Column { return sqlmini.Column{Name: name, Type: I, PrimaryKey: true} }
	return sqlmini.Schema{
		"country":  {pk("co_id"), col("co_name", T), col("co_currency", T)},
		"address":  {pk("addr_id"), col("addr_street", T), col("addr_city", T), col("addr_zip", T), col("addr_co_id", I)},
		"customer": {pk("c_id"), col("c_uname", T), col("c_passwd", T), col("c_fname", T), col("c_lname", T), col("c_addr_id", I), col("c_phone", T), col("c_email", T), col("c_discount", F), col("c_balance", F)},
		"author":   {pk("a_id"), col("a_fname", T), col("a_lname", T)},
		"item": {pk("i_id"), col("i_title", T), col("i_a_id", I), idx("i_pub_date", I), col("i_publisher", T),
			idx("i_subject", T), col("i_desc", T), col("i_srp", F), col("i_cost", F), col("i_stock", I)},
		"orders": {pk("o_id"), idx("o_c_id", I), col("o_date", I), col("o_sub_total", F), col("o_tax", F),
			col("o_total", F), col("o_ship_type", T), col("o_ship_date", I), col("o_status", T)},
		"order_line": {pk("ol_id"), col("ol_o_id", I), col("ol_i_id", I), col("ol_qty", I), col("ol_discount", F), col("ol_comment", T)},
	}
}

// RowCounts returns the cardinalities for an EB scale (full-scale sizes
// for the classification's fragment model).
func RowCounts(eb int) map[string]int64 {
	cust := int64(960 * eb)
	return map[string]int64{
		"country":    92,
		"author":     2500,
		"item":       10000,
		"customer":   cust,
		"address":    2 * cust,
		"orders":     3 * cust,
		"order_line": 9 * cust,
	}
}

var subjects = []string{"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS", "COOKING", "HEALTH", "HISTORY", "HOME", "HUMOR"}

// olSeq hands out collision-free order_line keys for generated inserts
// (loaded data uses keys below 1<<40).
var olSeq atomic.Int64

func init() { olSeq.Store(1 << 40) }

// templates returns the workload templates; writeCostFactor scales the
// update costs (1 for the standard mix, 3 for the large-scale mix of
// Figure 4(i)).
func templates(rows map[string]int64, writeCostFactor float64) []workload.Template {
	nCust := rows["customer"]
	nItem := rows["item"]
	nOrder := rows["orders"]
	ri := func(rng *rand.Rand, n int64) int64 {
		if n <= 0 {
			return 0
		}
		return rng.Int63n(n)
	}
	return []workload.Template{
		// Reads: 12.5% of requests, 75% of the weight.
		{
			Name:    "newProducts",
			Journal: `SELECT i_id, i_title, a_fname, a_lname FROM item JOIN author ON a_id = i_a_id WHERE i_pub_date > 900 ORDER BY i_pub_date DESC LIMIT 50`,
			Freq:    1.5, Cost: 100.0 / 3, // 50% weight at 1.5% frequency
		},
		{
			Name:    "orderStatus",
			Journal: `SELECT o_id, o_status, o_total, c_fname FROM customer JOIN orders ON o_c_id = c_id WHERE c_id = 7`,
			Gen: func(rng *rand.Rand) string {
				return fmt.Sprintf(`SELECT o_id, o_status, o_total, c_fname FROM customer JOIN orders ON o_c_id = c_id WHERE c_id = %d`, ri(rng, nCust))
			},
			Freq: 3, Cost: 3, // 9%
		},
		{
			Name:    "customerLogin",
			Journal: `SELECT c_id, c_uname, addr_street, co_name FROM customer JOIN address ON addr_id = c_addr_id JOIN country ON co_id = addr_co_id WHERE c_id = 11`,
			Gen: func(rng *rand.Rand) string {
				return fmt.Sprintf(`SELECT c_id, c_uname, addr_street, co_name FROM customer JOIN address ON addr_id = c_addr_id JOIN country ON co_id = addr_co_id WHERE c_id = %d`, ri(rng, nCust))
			},
			Freq: 3, Cost: 2, // 6%
		},
		{
			Name:    "searchSubject",
			Journal: `SELECT i_id, i_title, i_srp FROM item WHERE i_subject = 'HISTORY' LIMIT 50`,
			Gen: func(rng *rand.Rand) string {
				return fmt.Sprintf(`SELECT i_id, i_title, i_srp FROM item WHERE i_subject = '%s' LIMIT 50`, subjects[rng.Intn(len(subjects))])
			},
			Freq: 3, Cost: 2, // 6%
		},
		{
			Name:    "searchTitle",
			Journal: `SELECT i_id, i_title, i_publisher FROM item WHERE i_title LIKE 'Title 1%' LIMIT 50`,
			Freq:    2, Cost: 2, // 4% — same tables as searchSubject, different columns
		},
		// Writes: 87.5% of requests, 25% of the weight (x writeCostFactor).
		{
			Name:    "insertOrderLine",
			Journal: `INSERT INTO order_line VALUES (999999999, 1, 1, 1, 0.0, 'c')`,
			Gen: func(rng *rand.Rand) string {
				return fmt.Sprintf(`INSERT INTO order_line VALUES (%d, %d, %d, %d, 0.0, 'c')`,
					olSeq.Add(1), ri(rng, nOrder), ri(rng, nItem), rng.Intn(5)+1)
			},
			Freq: 30, Cost: 13.0 / 30 * writeCostFactor, Write: true, // 13%
		},
		{
			Name:    "updateOrder",
			Journal: `UPDATE orders SET o_status = 'SHIPPED', o_ship_date = 1000 WHERE o_id = 5`,
			Gen: func(rng *rand.Rand) string {
				return fmt.Sprintf(`UPDATE orders SET o_status = 'SHIPPED', o_ship_date = %d WHERE o_id = %d`, rng.Intn(2000), ri(rng, nOrder))
			},
			Freq: 25, Cost: 0.2 * writeCostFactor, Write: true, // 5%
		},
		{
			Name:    "updateStock",
			Journal: `UPDATE item SET i_stock = i_stock - 1 WHERE i_id = 3`,
			Gen: func(rng *rand.Rand) string {
				return fmt.Sprintf(`UPDATE item SET i_stock = i_stock - 1 WHERE i_id = %d`, ri(rng, nItem))
			},
			Freq: 12, Cost: 0.2 * writeCostFactor, Write: true, // 2.4%
		},
		{
			Name:    "updatePrice",
			Journal: `UPDATE item SET i_cost = 9.5, i_srp = 12.5 WHERE i_id = 3`,
			Gen: func(rng *rand.Rand) string {
				return fmt.Sprintf(`UPDATE item SET i_cost = %.2f, i_srp = %.2f WHERE i_id = %d`, 5+rng.Float64()*20, 8+rng.Float64()*25, ri(rng, nItem))
			},
			Freq: 8, Cost: 0.2 * writeCostFactor, Write: true, // 1.6% — same table as updateStock, different columns
		},
		{
			Name:    "updateCustomer",
			Journal: `UPDATE customer SET c_balance = c_balance + 1.5 WHERE c_id = 2`,
			Gen: func(rng *rand.Rand) string {
				return fmt.Sprintf(`UPDATE customer SET c_balance = c_balance + %.2f WHERE c_id = %d`, rng.Float64()*10, ri(rng, nCust))
			},
			Freq: 12.5, Cost: 0.24 * writeCostFactor, Write: true, // 3%
		},
	}
}

// Mix returns the standard TPC-App workload (EB-scaled ids in the
// generated statements).
func Mix(eb int) (*workload.Mix, error) {
	return workload.NewMix(templates(RowCounts(eb), 1))
}

// LargeMix returns the Figure 4(i) large-scale variant: EB = 12000 data
// and updates three times as expensive, which brings the update weight
// to ~50% of the workload.
func LargeMix() (*workload.Mix, error) {
	return workload.NewMix(templates(RowCounts(12000), 3))
}

// Load generates and bulk-loads the listed tables (nil means all). rows
// gives actual loaded cardinalities (typically RowCounts(eb) scaled
// down).
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
	want := map[string]bool{}
	for _, t := range tables {
		if _, ok := schema[t]; !ok {
			return fmt.Errorf("tpcapp: unknown table %q", t)
		}
		want[t] = true
	}
	rng := rand.New(rand.NewSource(seed))
	n := func(t string, def int64) int64 {
		if v, ok := rows[t]; ok && v > 0 {
			return v
		}
		return def
	}
	counts := map[string]int64{
		"country":    n("country", 92),
		"author":     n("author", 100),
		"item":       n("item", 200),
		"customer":   n("customer", 300),
		"address":    n("address", 600),
		"orders":     n("orders", 900),
		"order_line": n("order_line", 2700),
	}
	gen := map[string]func(i int64) sqlmini.Row{
		"country": func(i int64) sqlmini.Row {
			return sqlmini.Row{sqlmini.Int(i), sqlmini.Text(fmt.Sprintf("Country%02d", i)), sqlmini.Text("USD")}
		},
		"author": func(i int64) sqlmini.Row {
			return sqlmini.Row{sqlmini.Int(i), sqlmini.Text(fmt.Sprintf("First%d", i)), sqlmini.Text(fmt.Sprintf("Last%d", i))}
		},
		"item": func(i int64) sqlmini.Row {
			return sqlmini.Row{sqlmini.Int(i), sqlmini.Text(fmt.Sprintf("Title %d", i)), sqlmini.Int(i % counts["author"]),
				sqlmini.Int(int64(rng.Intn(2000))), sqlmini.Text("Publisher"), sqlmini.Text(subjects[rng.Intn(len(subjects))]),
				sqlmini.Text("desc"), sqlmini.Float(5 + rng.Float64()*50), sqlmini.Float(3 + rng.Float64()*30),
				sqlmini.Int(int64(rng.Intn(1000)))}
		},
		"address": func(i int64) sqlmini.Row {
			return sqlmini.Row{sqlmini.Int(i), sqlmini.Text("street"), sqlmini.Text("city"), sqlmini.Text("zip"),
				sqlmini.Int(i % counts["country"])}
		},
		"customer": func(i int64) sqlmini.Row {
			return sqlmini.Row{sqlmini.Int(i), sqlmini.Text(fmt.Sprintf("user%d", i)), sqlmini.Text("pw"),
				sqlmini.Text("fn"), sqlmini.Text("ln"), sqlmini.Int(i % counts["address"]), sqlmini.Text("555"),
				sqlmini.Text("e@x"), sqlmini.Float(rng.Float64() / 10), sqlmini.Float(rng.Float64() * 100)}
		},
		"orders": func(i int64) sqlmini.Row {
			return sqlmini.Row{sqlmini.Int(i), sqlmini.Int(i % counts["customer"]), sqlmini.Int(int64(rng.Intn(2000))),
				sqlmini.Float(10 + rng.Float64()*200), sqlmini.Float(2), sqlmini.Float(12 + rng.Float64()*210),
				sqlmini.Text("STANDARD"), sqlmini.Int(int64(rng.Intn(2000))), sqlmini.Text("PENDING")}
		},
		"order_line": func(i int64) sqlmini.Row {
			return sqlmini.Row{sqlmini.Int(i), sqlmini.Int(i % counts["orders"]), sqlmini.Int(i % counts["item"]),
				sqlmini.Int(int64(rng.Intn(5) + 1)), sqlmini.Float(0), sqlmini.Text("c")}
		},
	}
	for _, t := range []string{"country", "author", "item", "address", "customer", "orders", "order_line"} {
		if !want[t] {
			continue
		}
		if e.Table(t) == nil {
			if err := e.CreateTable(t, schema[t]); err != nil {
				return err
			}
		}
		batch := make([]sqlmini.Row, 0, 1024)
		for i := int64(0); i < counts[t]; i++ {
			batch = append(batch, gen[t](i))
			if len(batch) == cap(batch) {
				if err := e.BulkInsert(t, batch); err != nil {
					return err
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			if err := e.BulkInsert(t, batch); err != nil {
				return err
			}
		}
	}
	return nil
}
