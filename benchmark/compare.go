package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one compared (workload, metric) pair.
const (
	statusOK         = "ok"
	statusRegression = "REGRESSION"
	statusUnresolved = "unresolved"
	statusMissing    = "MISSING"
	statusMismatch   = "MISMATCH"
	statusDemoted    = "demoted"
)

// comparison is one row of the comparator's table.
type comparison struct {
	Workload string
	Metric   string
	Base     metricValue // from the first file: the ratio's base
	New      metricValue
	Ratio    float64 // New / Base
	Status   string
}

// failing reports whether the row makes the comparison exit non-zero.
func (c comparison) failing() bool {
	return c.Status == statusRegression || c.Status == statusMissing || c.Status == statusMismatch
}

// compareMetric applies one metric's direction and bound. An exact
// metric must be equal, and error_ratio must besides be 0 in the new
// run: a gain measured while requests fail does not count, even if as
// many failed before. A demoted metric is shown, not judged. A timed
// metric is a regression when it got worse by more than its bound and
// by more than the spread recorded in either file; short of that, it
// is unresolved rather than unchanged when that spread exceeds the
// bound, because a change of the size the bound guards against could
// not be told from noise.
func compareMetric(m metricSpec, base, next metricValue) (ratio float64, status string) {
	ratio = math.NaN()
	if base.Value != 0 {
		ratio = next.Value / base.Value
	}
	if m.Exact {
		if base.Value != next.Value || (m.Name == "error_ratio" && next.Value != 0) {
			return ratio, statusMismatch
		}
		return ratio, statusOK
	}
	if m.Demoted {
		return ratio, statusDemoted
	}
	worse := next.Value - base.Value
	if m.Better == "higher" {
		worse = -worse
	}
	spread := math.Max(base.Spread, next.Spread)
	switch {
	case worse > math.Abs(base.Value)*math.Max(m.Bound, spread):
		return ratio, statusRegression
	case spread > m.Bound:
		return ratio, statusUnresolved
	}
	return ratio, statusOK
}

// compareResults returns one row per workload of base and end-to-end
// metric defined on it.
func compareResults(base, next *resultFile) []comparison {
	var rows []comparison
	for _, bw := range base.Workloads {
		nw := next.workload(bw.Name)
		for _, m := range suiteMetrics {
			if !m.appliesTo(bw.Name) {
				continue
			}
			row := comparison{Workload: bw.Name, Metric: m.Name, Ratio: math.NaN()}
			bv, bok := bw.EndToEnd[m.Name]
			var nv metricValue
			nok := false
			if nw != nil {
				nv, nok = nw.EndToEnd[m.Name]
			}
			row.Base, row.New = bv, nv
			if !bok || !nok {
				row.Status = statusMissing
			} else {
				row.Ratio, row.Status = compareMetric(m, bv, nv)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// compareFiles prints the comparison of two result files and returns
// the process exit code: 1 on a regression, an exact-metric mismatch
// or a missing metric, 0 otherwise.
func compareFiles(w io.Writer, basePath, nextPath string) int {
	base, err := readResultFile(basePath)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	next, err := readResultFile(nextPath)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	if base.Seconds != next.Seconds {
		fmt.Fprintf(w, "%s measured %d s windows and %s %d s: not comparable\n", basePath, base.Seconds, nextPath, next.Seconds)
		return 2
	}
	fmt.Fprintf(w, "base %s (commit %s, seed %d)\nnew  %s (commit %s, seed %d)\n",
		basePath, base.Commit, base.Seed, nextPath, next.Commit, next.Seed)
	fmt.Fprintf(w, "%-15s %-20s %16s %16s %-5s %10s  %s\n", "workload", "metric", "base", "new", "unit", "new/base", "status")
	code := 0
	unresolved := 0
	for _, row := range compareResults(base, next) {
		fmt.Fprintf(w, "%-15s %-20s %16.6g %16.6g %-5s %10.4f  %s\n",
			row.Workload, row.Metric, row.Base.Value, row.New.Value, row.Base.Unit, row.Ratio, row.Status)
		if row.failing() {
			code = 1
		}
		if row.Status == statusUnresolved {
			unresolved++
		}
	}
	if unresolved > 0 {
		fmt.Fprintf(w, "%d unresolved: the recorded spread exceeds the metric's bound, so no change can be told from noise\n", unresolved)
	}
	return code
}
