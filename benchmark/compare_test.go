package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareMetric(t *testing.T) {
	lower := metricSpec{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.07}
	exact := metricSpec{Name: "model_speedup", Unit: "x", Better: "higher", Exact: true}
	errors := metricSpec{Name: "error_ratio", Unit: "ratio", Better: "lower", Exact: true}
	demoted := metricSpec{Name: "read_p99_us", Unit: "us", Better: "lower", Bound: 0.15, Demoted: true}
	v := func(value, spread float64) metricValue { return metricValue{Value: value, Spread: spread} }
	for _, c := range []struct {
		name       string
		spec       metricSpec
		base, next metricValue
		want       string
	}{
		{"lower-is-better improved", lower, v(100, 0), v(80, 0), statusOK},
		{"lower-is-better worse within bound", lower, v(100, 0), v(109, 0), statusOK},
		{"lower-is-better exactly at the bound", lower, v(100, 0), v(110, 0), statusOK},
		{"lower-is-better past the bound", lower, v(100, 0), v(110.5, 0), statusRegression},
		{"higher-is-better improved", higher, v(1000, 0), v(1500, 0), statusOK},
		{"higher-is-better exactly at the bound", higher, v(1000, 0), v(930, 0), statusOK},
		{"higher-is-better past the bound", higher, v(1000, 0), v(929, 0), statusRegression},
		{"direction is not symmetric", higher, v(1000, 0), v(1100, 0), statusOK},
		{"spread of the base exceeds the bound", lower, v(100, 0.2), v(101, 0), statusUnresolved},
		{"spread of the new run exceeds the bound", higher, v(1000, 0), v(990, 0.08), statusUnresolved},
		{"worse than the bound but inside the spread", lower, v(100, 0.3), v(120, 0), statusUnresolved},
		{"worse than the bound and the spread", lower, v(100, 0.5), v(200, 0.5), statusRegression},
		{"exact equal", exact, v(3.5, 0), v(3.5, 0), statusOK},
		{"exact better is still a mismatch", exact, v(3.5, 0), v(3.6, 0), statusMismatch},
		{"exact ignores spread", exact, v(3.5, 0.9), v(3.5, 0.9), statusOK},
		{"no errors on either side", errors, v(0, 0), v(0, 0), statusOK},
		{"errors appeared", errors, v(0, 0), v(0.01, 0), statusMismatch},
		{"as many errors as before is still a mismatch", errors, v(0.01, 0), v(0.01, 0), statusMismatch},
		{"a demoted metric is not judged", demoted, v(100, 0), v(300, 0), statusDemoted},
	} {
		if _, got := compareMetric(c.spec, c.base, c.next); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	result := func(values map[string]float64) *resultFile {
		w := workloadResult{Name: wlPoint, EndToEnd: map[string]metricValue{}}
		for name, v := range values {
			w.EndToEnd[name] = metricValue{Value: v}
		}
		return &resultFile{Workloads: []workloadResult{w}}
	}
	base := map[string]float64{
		"setup_s": 1, "throughput_rps": 50000, "read_p50_us": 20, "read_p99_us": 80,
		"model_speedup": 4, "replication_degree": 4, "cpu_s_per_kreq": 0.02, "error_ratio": 0,
	}
	with := func(name string, v float64) map[string]float64 {
		out := map[string]float64{}
		for k, x := range base {
			out[k] = x
		}
		out[name] = v
		return out
	}
	without := func(name string) map[string]float64 {
		out := with(name, 0)
		delete(out, name)
		return out
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name     string
		next     map[string]float64
		code     int
		mentions string
	}{
		{"the same run", base, 0, ""},
		{"a regression", with("throughput_rps", 40000), 1, statusRegression},
		{"an exact metric moved", with("replication_degree", 3.9), 1, statusMismatch},
		{"errors appeared", with("error_ratio", 0.001), 1, statusMismatch},
		{"a metric is missing", without("read_p99_us"), 1, statusMissing},
	} {
		a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
		if err := writeJSON(a, result(base)); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(b, result(c.next)); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if code := compareFiles(&out, a, b); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if c.mentions != "" && !strings.Contains(out.String(), c.mentions) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.mentions, out.String())
		}
		// One row per metric defined on the workload, whatever happened.
		rows := 0
		for _, m := range suiteMetrics {
			if m.appliesTo(wlPoint) && strings.Contains(out.String(), m.Name) {
				rows++
			}
		}
		if rows != len(base) {
			t.Errorf("%s: %d metric rows, want %d\n%s", c.name, rows, len(base), out.String())
		}
	}
	if code := compareFiles(&bytes.Buffer{}, filepath.Join(dir, "none.json"), filepath.Join(dir, "a.json")); code != 2 {
		t.Errorf("unreadable file: exit code %d, want 2", code)
	}
}
