package cluster

import (
	"sort"
	"time"

	"qcpa/internal/core"
)

// MigrationReport summarizes one live reallocation (MigrateLive or
// ResizeLive).
type MigrationReport struct {
	// Mapping[v] is the physical backend hosting logical backend v of
	// the new allocation: the Hungarian matching at an unchanged backend
	// count, the identity after a resize compacted the pool into
	// logical order.
	Mapping []int `json:"mapping"`
	// CopiedTables counts table instances shipped between backends.
	CopiedTables int `json:"copied_tables"`
	// LoadedTables counts table instances that had to come from the
	// loader (no backend had them).
	LoadedTables int `json:"loaded_tables"`
	// DroppedTables counts table instances removed.
	DroppedTables int `json:"dropped_tables"`
	// CopiedRows counts rows shipped from replicas that already held
	// the table; LoadedRows counts rows fetched through the loader.
	CopiedRows int64 `json:"copied_rows"`
	LoadedRows int64 `json:"loaded_rows"`
	// MovedRows is CopiedRows + LoadedRows (kept for compatibility with
	// callers of the pre-split accounting).
	MovedRows int64 `json:"moved_rows"`
	// DeltaReplayed counts concurrent updates captured and replayed
	// into in-flight tables (0 on an idle cluster).
	DeltaReplayed int `json:"delta_replayed"`
	// CutoverPause is the longest per-table cutover barrier hold — the
	// only moment a reallocation blocks updates.
	CutoverPause time.Duration `json:"cutover_pause_ns"`
}

// noteCopied accounts one table shipped from a live replica.
func (r *MigrationReport) noteCopied(rows int64) {
	r.CopiedTables++
	r.CopiedRows += rows
	r.MovedRows += rows
}

// noteLoaded accounts one table fetched through the loader.
func (r *MigrationReport) noteLoaded(rows int64) {
	r.LoadedTables++
	r.LoadedRows += rows
	r.MovedRows += rows
}

// wantTables computes the desired table set per physical backend under
// the matched mapping. Backends no logical index maps to (decommission
// targets of a scale-in) want nothing.
func wantTables(alloc *core.Allocation, mapping []int, n int) []map[string]bool {
	want := make([]map[string]bool, n)
	for i := range want {
		want[i] = make(map[string]bool)
	}
	for v := 0; v < alloc.NumBackends(); v++ {
		want[mapping[v]] = fragmentTables(alloc.Fragments(v))
	}
	return want
}

// sortedTables returns a table set's tables in deterministic order.
func sortedTables[V any](tables map[string]V) []string {
	names := make([]string, 0, len(tables))
	for t := range tables {
		names = append(names, t)
	}
	sort.Strings(names)
	return names
}
