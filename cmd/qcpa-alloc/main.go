// Command qcpa-alloc computes a partial replication from a schema file
// and a query journal.
//
// The schema file contains CREATE TABLE statements (one per table, the
// sqlmini SQL subset). The journal file has one line per
// distinguishable query:
//
//	<count>|<cost>|<SQL>
//
// where count is the number of occurrences and cost the per-execution
// cost (e.g. measured milliseconds). Blank lines and lines starting
// with # are ignored.
//
// Usage:
//
//	qcpa-alloc -schema schema.sql -journal journal.txt -backends 4
//	qcpa-alloc ... -strategy column -solver memetic
//	qcpa-alloc ... -loads 0.3,0.3,0.2,0.2       # heterogeneous cluster
//	qcpa-alloc ... -k 1                          # 1-safety
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"qcpa"
	"qcpa/internal/sqlmini"
)

func main() {
	var (
		schemaPath  = flag.String("schema", "", "path to CREATE TABLE statements (required)")
		journalPath = flag.String("journal", "", "path to the query journal (required)")
		backends    = flag.Int("backends", 4, "number of backends")
		loads       = flag.String("loads", "", "comma-separated relative backend loads (heterogeneous clusters)")
		strategy    = flag.String("strategy", "table", "classification granularity: table | column")
		solver      = flag.String("solver", "greedy", "allocation solver: greedy | memetic | optimal")
		k           = flag.Int("k", 0, "k-safety: every class on at least k+1 backends (greedy only)")
		rowsSpec    = flag.String("rows", "", "table cardinalities, e.g. orders=100000,items=5000")
		outPath     = flag.String("o", "", "write the allocation plan as JSON to this file")
	)
	flag.Parse()
	if *schemaPath == "" || *journalPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	schema, err := loadSchema(*schemaPath)
	if err != nil {
		fatal(err)
	}
	journal, err := loadJournal(*journalPath)
	if err != nil {
		fatal(err)
	}
	rowCounts, err := parseRows(*rowsSpec)
	if err != nil {
		fatal(err)
	}

	copts := qcpa.ClassifyOptions{RowCounts: rowCounts}
	switch *strategy {
	case "table":
		copts.Strategy = qcpa.TableBased
	case "column":
		copts.Strategy = qcpa.ColumnBased
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}
	res, err := qcpa.ClassifyJournal(journal, schema, copts)
	if err != nil {
		fatal(err)
	}
	cls := res.Classification
	fmt.Printf("classified %d journal entries into %d classes over %d fragments\n",
		len(journal), len(cls.Classes()), len(cls.Fragments()))
	for _, c := range cls.Classes() {
		fmt.Printf("  %s\n", c)
	}
	fmt.Printf("Eq. 17 speedup bound: %.3f\n\n", cls.MaxSpeedup())

	bs, err := parseBackends(*backends, *loads)
	if err != nil {
		fatal(err)
	}
	aopts := qcpa.AllocateOptions{KSafety: *k}
	switch *solver {
	case "greedy":
		aopts.Solver = qcpa.SolverGreedy
	case "memetic":
		aopts.Solver = qcpa.SolverMemetic
	case "optimal":
		aopts.Solver = qcpa.SolverOptimal
		aopts.Optimal = qcpa.OptimalOptions{MaxNodes: 20000}
	default:
		fatal(fmt.Errorf("unknown solver %q", *solver))
	}
	alloc, err := qcpa.Allocate(cls, bs, aopts)
	if err != nil {
		fatal(err)
	}
	fmt.Println(alloc)
	fmt.Println("\nload matrix (assign(C,B), percent):")
	printLoadMatrix(alloc)

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := alloc.Encode(f); err != nil {
			fatal(err)
		}
		fmt.Printf("\nplan written to %s\n", *outPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qcpa-alloc:", err)
	os.Exit(1)
}

// loadSchema parses CREATE TABLE statements separated by semicolons.
func loadSchema(path string) (qcpa.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	schema := qcpa.Schema{}
	for _, stmt := range strings.Split(string(data), ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		parsed, err := sqlmini.Parse(stmt)
		if err != nil {
			return nil, fmt.Errorf("schema: %w", err)
		}
		ct, ok := parsed.AST.(*sqlmini.CreateTableStmt)
		if !ok {
			return nil, fmt.Errorf("schema: %q is not a CREATE TABLE", stmt)
		}
		schema[ct.Table] = ct.Columns
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("schema file %s contains no tables", path)
	}
	return schema, nil
}

// loadJournal reads "count|cost|SQL" lines.
func loadJournal(path string) ([]qcpa.JournalEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []qcpa.JournalEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "|", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("journal line %d: want count|cost|SQL", lineNo)
		}
		count, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("journal line %d: bad count: %w", lineNo, err)
		}
		cost, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("journal line %d: bad cost: %w", lineNo, err)
		}
		out = append(out, qcpa.JournalEntry{SQL: strings.TrimSpace(parts[2]), Count: count, Cost: cost})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("journal %s is empty", path)
	}
	return out, nil
}

func parseRows(spec string) (map[string]int64, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]int64{}
	for _, kv := range strings.Split(spec, ",") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -rows entry %q", kv)
		}
		n, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -rows entry %q: %w", kv, err)
		}
		out[strings.TrimSpace(parts[0])] = n
	}
	return out, nil
}

func parseBackends(n int, loads string) ([]qcpa.Backend, error) {
	if loads == "" {
		return qcpa.UniformBackends(n), nil
	}
	var bs []qcpa.Backend
	for i, part := range strings.Split(loads, ",") {
		l, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -loads entry %q: %w", part, err)
		}
		bs = append(bs, qcpa.Backend{Name: fmt.Sprintf("B%d", i+1), Load: l})
	}
	return qcpa.NormalizeBackends(bs), nil
}

func printLoadMatrix(a *qcpa.Allocation) {
	cls := a.Classification()
	fmt.Printf("%8s", "")
	for _, c := range cls.Classes() {
		fmt.Printf(" %8s", c.Name)
	}
	fmt.Printf(" %8s\n", "overall")
	for b, be := range a.Backends() {
		fmt.Printf("%8s", be.Name)
		for _, c := range cls.Classes() {
			fmt.Printf(" %7.1f%%", a.Assign(b, c.Name)*100)
		}
		fmt.Printf(" %7.1f%%\n", a.AssignedLoad(b)*100)
	}
}
