// Package classify implements the query classification of Section 3.1:
// a journal of executed queries is analyzed and grouped into query
// classes — sets of data fragments referenced together — with a relative
// weight per class derived from the summed execution cost (Eq. 4).
//
// Three granularities are supported, mirroring the paper:
//
//   - TableBased: fragments are whole tables (no partitioning);
//   - ColumnBased: fragments are single columns (vertical partitioning;
//     every class implicitly includes the table's primary key so data
//     remains losslessly reconstructible);
//   - Horizontal: fragments are ranges of a partition column (horizontal
//     partitioning), derived from the queries' predicates.
package classify

import (
	"errors"
	"fmt"
	"sort"

	"qcpa/internal/core"
	"qcpa/internal/sqlmini"
)

// Strategy selects the classification granularity.
type Strategy int

const (
	// TableBased groups queries by the set of tables they reference.
	TableBased Strategy = iota
	// ColumnBased groups queries by the set of columns they reference.
	ColumnBased
	// Horizontal groups queries by the partition-column ranges they
	// touch (tables without a HorizontalSpec fall back to whole-table
	// fragments).
	Horizontal
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case TableBased:
		return "table-based"
	case ColumnBased:
		return "column-based"
	case Horizontal:
		return "horizontal"
	}
	return "unknown"
}

// Entry is one journal line: a distinguishable query with its occurrence
// count and per-execution cost (execution time or optimizer estimate —
// the weight source of Eq. 4).
type Entry struct {
	SQL   string
	Count int
	Cost  float64
}

// HorizontalSpec configures range partitioning of one table for the
// Horizontal strategy.
type HorizontalSpec struct {
	// Column is the integer partition column.
	Column string
	// Buckets is the number of equal-width range fragments.
	Buckets int
	// Min and Max bound the column domain; values outside are clamped.
	Min, Max int64
}

// Options configure Classify.
type Options struct {
	Strategy Strategy
	// RowCounts gives the table cardinalities used to derive fragment
	// sizes (bytes, consistent with sqlmini's width model). Tables not
	// listed default to 1000 rows.
	RowCounts map[string]int64
	// Horizontal maps table names to their range-partitioning spec
	// (Horizontal strategy only).
	Horizontal map[string]HorizontalSpec
}

// Result is the outcome of classification.
type Result struct {
	// Classification is the weighted class/fragment model for the
	// allocation algorithms.
	Classification *core.Classification
	// ClassOf maps each journal SQL text to its class name, for request
	// routing.
	ClassOf map[string]string
}

func colWidth(k sqlmini.Kind) float64 {
	if k == sqlmini.KindText {
		return 24
	}
	return 8
}

// Classify analyzes the journal against the schema and builds the
// classification. Classes are named Q1, Q2, ... (reads) and U1, U2, ...
// (updates) in order of decreasing weight.
func Classify(entries []Entry, schema sqlmini.Schema, opts Options) (*Result, error) {
	if len(entries) == 0 {
		return nil, errors.New("classify: empty journal")
	}
	rows := func(table string) int64 {
		if n, ok := opts.RowCounts[table]; ok {
			return n
		}
		return 1000
	}

	cls := core.NewClassification()
	addedFrag := map[core.FragmentID]bool{}
	addFrag := func(id core.FragmentID, size float64) {
		if !addedFrag[id] {
			addedFrag[id] = true
			cls.AddFragment(core.Fragment{ID: id, Size: size})
		}
	}
	tableSize := func(t string) float64 {
		var w float64
		for _, c := range schema[t] {
			w += colWidth(c.Type)
		}
		return w * float64(rows(t))
	}

	// fragmentsOf maps one analyzed query to its fragment set, adding
	// fragments to the classification as they appear.
	fragmentsOf := func(info *sqlmini.QueryInfo) ([]core.FragmentID, error) {
		var out []core.FragmentID
		switch opts.Strategy {
		case TableBased:
			for _, t := range info.Tables {
				id := core.FragmentID(t)
				addFrag(id, tableSize(t))
				out = append(out, id)
			}
		case ColumnBased:
			for _, qc := range info.Columns {
				id := core.FragmentID(qc)
				var tbl, col string
				for i := 0; i < len(qc); i++ {
					if qc[i] == '.' {
						tbl, col = qc[:i], qc[i+1:]
						break
					}
				}
				var width float64 = 8
				for _, c := range schema[tbl] {
					if c.Name == col {
						width = colWidth(c.Type)
					}
				}
				addFrag(id, width*float64(rows(tbl)))
				out = append(out, id)
			}
		case Horizontal:
			for _, t := range info.Tables {
				spec, ok := opts.Horizontal[t]
				if !ok || spec.Buckets <= 1 {
					id := core.FragmentID(t)
					addFrag(id, tableSize(t))
					out = append(out, id)
					continue
				}
				lo, hi := bucketRange(info.Predicates, t, spec)
				per := tableSize(t) / float64(spec.Buckets)
				for b := lo; b <= hi; b++ {
					id := core.FragmentID(fmt.Sprintf("%s#%d", t, b))
					addFrag(id, per)
					out = append(out, id)
				}
			}
		default:
			return nil, fmt.Errorf("classify: unknown strategy %d", opts.Strategy)
		}
		return out, nil
	}

	// Group entries by (kind, fragment set).
	type groupKey string
	type group struct {
		write  bool
		frags  []core.FragmentID
		weight float64
		sqls   []string
	}
	groups := map[groupKey]*group{}
	var order []groupKey
	totalWeight := 0.0
	for _, en := range entries {
		if en.Count <= 0 {
			return nil, fmt.Errorf("classify: entry %q has non-positive count", en.SQL)
		}
		if en.Cost <= 0 {
			return nil, fmt.Errorf("classify: entry %q has non-positive cost", en.SQL)
		}
		info, err := sqlmini.Analyze(en.SQL, schema)
		if err != nil {
			return nil, fmt.Errorf("classify: %q: %w", en.SQL, err)
		}
		frags, err := fragmentsOf(info)
		if err != nil {
			return nil, err
		}
		sort.Slice(frags, func(i, j int) bool { return frags[i] < frags[j] })
		key := groupKey(fmt.Sprintf("%v|%v", info.Write, frags))
		g, ok := groups[key]
		if !ok {
			g = &group{write: info.Write, frags: frags}
			groups[key] = g
			order = append(order, key)
		}
		w := float64(en.Count) * en.Cost
		g.weight += w
		g.sqls = append(g.sqls, en.SQL)
		totalWeight += w
	}

	// Deterministic naming: heaviest class first within each kind.
	sort.SliceStable(order, func(i, j int) bool {
		gi, gj := groups[order[i]], groups[order[j]]
		if gi.weight != gj.weight {
			return gi.weight > gj.weight
		}
		return fmt.Sprint(gi.frags) < fmt.Sprint(gj.frags)
	})
	classOf := make(map[string]string)
	qn, un := 0, 0
	for _, key := range order {
		g := groups[key]
		var name string
		kind := core.Read
		if g.write {
			un++
			name = fmt.Sprintf("U%d", un)
			kind = core.Update
		} else {
			qn++
			name = fmt.Sprintf("Q%d", qn)
		}
		if err := cls.AddClass(core.NewClass(name, kind, g.weight/totalWeight, g.frags...)); err != nil {
			return nil, err
		}
		for _, s := range g.sqls {
			classOf[s] = name
		}
	}
	if err := cls.Validate(); err != nil {
		return nil, err
	}
	return &Result{Classification: cls, ClassOf: classOf}, nil
}

// bucketRange maps the predicates on a table's partition column to the
// inclusive bucket interval they select: the intersection of the ends
// they set, whatever their order. Queries without a usable predicate
// (<> sets no end), or whose ends contradict, touch every bucket.
func bucketRange(preds []sqlmini.Predicate, table string, spec HorizontalSpec) (int, int) {
	lo, hi := spec.Min, spec.Max
	found := false
	for _, p := range preds {
		if p.Table != table || p.Column != spec.Column || p.Value.K != sqlmini.KindInt {
			continue
		}
		// A predicate that passes nothing above (below) its value sets the
		// upper (lower) end, one step inside unless it passes the value.
		k, step := p.Value.I, int64(1)
		if p.Pass&sqlmini.PassEQ != 0 {
			step = 0
		}
		if p.Pass&sqlmini.PassGT == 0 {
			hi, found = min(hi, k-step), true
		}
		if p.Pass&sqlmini.PassLT == 0 {
			lo, found = max(lo, k+step), true
		}
	}
	clamp := func(v int64) int64 {
		if v < spec.Min {
			return spec.Min
		}
		if v > spec.Max {
			return spec.Max
		}
		return v
	}
	lo, hi = clamp(lo), clamp(hi)
	if !found || lo > hi {
		return 0, spec.Buckets - 1
	}
	width := (spec.Max - spec.Min + 1) / int64(spec.Buckets)
	if width <= 0 {
		width = 1
	}
	bLo := int((lo - spec.Min) / width)
	bHi := int((hi - spec.Min) / width)
	if bLo >= spec.Buckets {
		bLo = spec.Buckets - 1
	}
	if bHi >= spec.Buckets {
		bHi = spec.Buckets - 1
	}
	return bLo, bHi
}
