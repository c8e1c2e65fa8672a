package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricValue is one measured metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples the value was taken from.
	N int `json:"n,omitempty"`
	// Spread is the recorded uncertainty of the value as a share of it:
	// in a run's file, the inter-quartile distance of the window's
	// slices over their median, divided by the square root of their
	// number (medianSpread); in a baseline file, the inter-quartile
	// distance across runs over their median. The comparator reports
	// "unresolved" where it exceeds the bound.
	Spread float64 `json:"spread,omitempty"`
	// Parts are the per-slice (per-pass on tpch-analytic) values the
	// median and the spread were taken from.
	Parts []float64 `json:"parts,omitempty"`
}

// workloadResult is what one workload measured in one run.
type workloadResult struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// OracleErrors lists the correctness conditions that did not hold.
	OracleErrors []string `json:"oracle_errors,omitempty"`
	// Samples gives the sample count behind each group of metrics.
	Samples  map[string]int         `json:"samples"`
	EndToEnd map[string]metricValue `json:"end_to_end"`
	// PerLayer is filled by traced runs only.
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	// TraceCounts are the exact counts of a traced run's ladder.
	TraceCounts *ladderCounts `json:"trace_counts,omitempty"`
}

// resultFile is benchmark/out/result-<seed>.json.
type resultFile struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	CPUModel   string           `json:"cpu_model"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Trace      bool             `json:"trace"`
	Workloads  []workloadResult `json:"workloads"`
}

func newResultFile(seed int64, seconds int, trace bool) *resultFile {
	return &resultFile{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
}

func (r *resultFile) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// outDir is where runs leave their result and trace files; it is the
// only place the benchmark writes. Tests point it at a temporary
// directory.
var outDir = "benchmark/out"

func writeJSON(path string, v interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// gitCommit reads the checked-out commit from .git without starting a
// process; a checkout that is not a git repository reads "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s
	}
	if data, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, ok := strings.CutSuffix(line, " "+ref); ok {
				return hash
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
