package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"qcpa/internal/workload/tpcapp"
)

// tinyConfig runs a workload's full code path — set-up, requests,
// oracle, traced ladder — at row counts that take a moment.
func tinyConfig(seed int64) runConfig {
	return runConfig{seed: seed, window: time.Minute, trace: true, sz: tinySizes}
}

// TestSmoke runs every workload twice at tiny sizes. It asserts
// correctness only, and that everything the benchmark calls exact is
// bit-identical between the two runs: the analytic quality of the
// solved allocations and the counts of the single-goroutine ladder.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var runs [2]*workloadResult
			for i := range runs {
				res, err := runners[w.Name](tinyConfig(1))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("oracles failed: attempted %d failed %d: %v", res.Attempted, res.Failed, res.OracleErrors)
				}
				if _, err := os.Stat(outDir + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("no span file: %v", err)
				}
				for _, m := range layerMetrics {
					if _, ok := res.PerLayer[m.Name]; !ok {
						t.Errorf("traced run lacks per-layer metric %s", m.Name)
					}
				}
				for _, m := range suiteMetrics {
					if _, ok := res.EndToEnd[m.Name]; ok != m.appliesTo(w.Name) {
						t.Errorf("end-to-end metric %s: present %v, defined on this workload %v", m.Name, ok, m.appliesTo(w.Name))
					}
				}
				runs[i] = res
			}
			for _, name := range []string{"model_speedup", "replication_degree", "error_ratio"} {
				if a, b := runs[0].EndToEnd[name].Value, runs[1].EndToEnd[name].Value; a != b {
					t.Errorf("%s differs between two runs of one seed: %v, %v", name, a, b)
				}
			}
			for _, name := range []string{"core.memetic_scale", "matching.moved_fraction", "classify.classes", "sqlmini.rows_scanned_per_row_returned"} {
				if a, b := runs[0].PerLayer[name].Value, runs[1].PerLayer[name].Value; a != b {
					t.Errorf("%s differs between two runs of one seed: %v, %v", name, a, b)
				}
			}
			if !reflect.DeepEqual(runs[0].TraceCounts, runs[1].TraceCounts) {
				t.Errorf("ladder counts differ between two runs of one seed: %+v, %+v", runs[0].TraceCounts, runs[1].TraceCounts)
			}
		})
	}
}

// TestStreamsDeterministic checks that a seed fixes every generated
// input byte for byte, and that another seed changes it.
func TestStreamsDeterministic(t *testing.T) {
	mix, err := tpcapp.Mix(1)
	if err != nil {
		t.Fatal(err)
	}
	tpl := splitTemplates(mix)
	templates, base, err := tpchJournal()
	if err != nil {
		t.Fatal(err)
	}
	generate := func(seed int64) map[string]interface{} {
		return map[string]interface{}{
			"point keys":       pointKeys(seed, 1, 1000, 500),
			"mixed stream":     mixedStream(tpl, seed, 1, 1000),
			"tpch pool":        tpchPool(templates, seed),
			"tpch passes":      tpchPasses(len(templates), seed, 0, 8),
			"mixed journal":    tpl.journal(10000),
			"realloc journals": driftedJournals(base, map[string]bool{base[1].SQL: true}, driftFactor),
		}
	}
	a, b, other := generate(7), generate(7), generate(8)
	for name := range a {
		if !reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
	}
	for _, name := range []string{"point keys", "mixed stream", "tpch pool", "tpch passes"} {
		if reflect.DeepEqual(a[name], other[name]) {
			t.Errorf("%s: another seed gave the same inputs", name)
		}
	}
	s := a["mixed stream"].(*textStream)
	seen := map[string]bool{}
	for i := range s.tpl {
		if sql := s.sql(i); len(sql) > len(insertPrefix) && sql[:len(insertPrefix)] == insertPrefix {
			if seen[sql] {
				t.Fatalf("insert repeats: %s", sql)
			}
			seen[sql] = true
		}
	}
	if len(seen) == 0 {
		t.Error("the mixed stream holds no insert")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) returns, the rule the benchmark's
// acceptance is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 2, 8, 4, 6, 12, 14, 16, 18, 20}, 5.5, 11, 16.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to spec.go: the file is what
// these tables say and nothing else, so a workload, a metric, a
// direction, the window or a bound cannot change in one place only.
func TestBenchmarkJSON(t *testing.T) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type file struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}
	want := file{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: windowSeconds,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workload{w.Name, w.Why})
	}
	for _, m := range driverMetrics() {
		if m.DriverBound > 0.25 {
			t.Errorf("%s: bound %v is more than BENCHMARK.json allows", m.Name, m.DriverBound)
		}
		if !m.appliesTo("") {
			t.Errorf("%s is not defined on every workload", m.Name)
		}
		want.EndToEnd = append(want.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.DriverBound})
	}
	for _, m := range layerMetrics {
		want.PerLayer = append(want.PerLayer, unbounded{m.Name, m.Unit, m.Better})
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got file
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		text, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from spec.go, which says:\n%s", text)
	}
}
