// Package qcpa is a query-centric partitioning and allocation library
// for partially replicated database systems, implementing Rabl and
// Jacobsen, "Query Centric Partitioning and Allocation for Partially
// Replicated Database Systems" (SIGMOD 2017).
//
// The library takes a query journal (or a ready-made classification of
// weighted query classes over data fragments), a set of backends with
// relative performance, and computes a partial replication that lets
// every query execute locally on a single backend, balances the load,
// and minimizes update replication and disk footprint. It also ships
// the full surrounding system: a query classifier over a SQL subset, an
// embedded relational engine, a concurrent cluster runtime with ROWA
// update propagation, a discrete-event cluster simulator, cost-minimal
// migration planning (Hungarian method), k-safety, workload-drift
// analysis, and autonomic scaling.
//
// # Quick start
//
//	cls := qcpa.NewClassification()
//	cls.AddFragment(qcpa.Fragment{ID: "orders", Size: 100})
//	cls.AddFragment(qcpa.Fragment{ID: "items", Size: 80})
//	cls.MustAddClass(qcpa.NewClass("browse", qcpa.Read, 0.7, "items"))
//	cls.MustAddClass(qcpa.NewClass("checkout", qcpa.Update, 0.3, "orders"))
//	alloc, err := qcpa.Allocate(cls, qcpa.UniformBackends(4), qcpa.AllocateOptions{})
//	fmt.Println(alloc.Speedup(), alloc.DegreeOfReplication())
//
// See the examples directory for complete programs (quickstart, the
// TPC-H and bookstore scenarios, and autonomic scaling).
package qcpa

import (
	"errors"

	"qcpa/internal/classify"
	"qcpa/internal/cluster"
	"qcpa/internal/core"
	"qcpa/internal/matching"
	"qcpa/internal/server"
	"qcpa/internal/sim"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
)

// Re-exported model types (see internal/core for the full method sets).
type (
	// Fragment is a unit of data placement (table, column, or range).
	Fragment = core.Fragment
	// FragmentID identifies a fragment.
	FragmentID = core.FragmentID
	// Class is a weighted query class over a fragment set.
	Class = core.Class
	// Kind distinguishes read from update classes.
	Kind = core.Kind
	// Classification is the fragment universe plus the query classes.
	Classification = core.Classification
	// Backend describes one backend with its relative performance.
	Backend = core.Backend
	// Allocation is a partial replication with per-class assignments.
	Allocation = core.Allocation
	// Cost is the lexicographic (scale, size) objective.
	Cost = core.Cost
	// MemeticOptions tune the evolutionary solver.
	MemeticOptions = core.MemeticOptions
	// OptimalOptions bound the MILP solver.
	OptimalOptions = core.OptimalOptions
	// OptimalResult carries the MILP solution and diagnostics.
	OptimalResult = core.OptimalResult
)

// Class kinds.
const (
	// Read marks read-only query classes.
	Read = core.Read
	// Update marks data-modifying query classes.
	Update = core.Update
)

// Constructors and helpers re-exported from the core model.
var (
	// NewClassification returns an empty classification.
	NewClassification = core.NewClassification
	// NewClass creates a query class.
	NewClass = core.NewClass
	// NewAllocation returns an empty allocation (for hand-built or
	// imported layouts).
	NewAllocation = core.NewAllocation
	// UniformBackends returns n homogeneous backends.
	UniformBackends = core.UniformBackends
	// NormalizeBackends rescales backend loads to sum to 1.
	NormalizeBackends = core.NormalizeBackends
	// FullReplication places everything everywhere (the baseline).
	FullReplication = core.FullReplication
	// CostOf evaluates an allocation's (scale, size) cost.
	CostOf = core.CostOf
	// RebalanceReads recomputes optimal read shares for a fixed
	// placement.
	RebalanceReads = core.RebalanceReads
	// SpeedupUnderDrift evaluates Section 5's workload-drift speedup.
	SpeedupUnderDrift = core.SpeedupUnderDrift
	// EnsureRobustness installs the Section 5 robustness reserve.
	EnsureRobustness = core.EnsureRobustness
	// EnsureFragmentRedundancy adds k-safety for read-only fragments.
	EnsureFragmentRedundancy = core.EnsureFragmentRedundancy
	// EnsureClassRedundancy repairs any allocation to k-safety.
	EnsureClassRedundancy = core.EnsureClassRedundancy
	// DecodeAllocation reads an allocation written by Allocation.Encode.
	DecodeAllocation = core.DecodeAllocation
)

// Solver selects the allocation algorithm.
type Solver int

const (
	// SolverGreedy is the first-fit heuristic of Algorithm 1 (the
	// default; polynomial time).
	SolverGreedy Solver = iota
	// SolverMemetic improves the greedy solution with the evolutionary
	// algorithm of Algorithm 2 and the local searches of Eqs. 21-26.
	SolverMemetic
	// SolverOptimal solves the Appendix B MILP (small instances only).
	SolverOptimal
)

// AllocateOptions configure Allocate.
type AllocateOptions struct {
	// Solver picks the algorithm (default SolverGreedy).
	Solver Solver
	// KSafety requires every query class on at least KSafety+1 backends
	// (Appendix C). SolverGreedy bakes the redundancy into the
	// construction (Algorithm 4); the other solvers repair their
	// solution afterwards with zero-weight replicas.
	KSafety int
	// Memetic tunes SolverMemetic.
	Memetic MemeticOptions
	// Optimal tunes SolverOptimal.
	Optimal OptimalOptions
}

// Allocate computes a partial replication of the classification over
// the backends. The classification weights and backend loads must each
// sum to 1 (Classification.Normalize, NormalizeBackends).
func Allocate(cls *Classification, backends []Backend, opts AllocateOptions) (*Allocation, error) {
	var (
		a   *Allocation
		err error
	)
	switch opts.Solver {
	case SolverGreedy:
		return core.GreedyKSafe(cls, backends, opts.KSafety)
	case SolverMemetic:
		a, err = core.Memetic(cls, backends, opts.Memetic)
	case SolverOptimal:
		var res *OptimalResult
		res, err = core.Optimal(cls, backends, opts.Optimal)
		if err == nil {
			a = res.Allocation
		}
	default:
		return nil, errors.New("qcpa: unknown solver")
	}
	if err != nil {
		return nil, err
	}
	if opts.KSafety > 0 {
		if err := core.EnsureClassRedundancy(a, opts.KSafety); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// OptimalAllocation exposes the MILP solver with its diagnostics
// (proven optimality flags, node counts).
func OptimalAllocation(cls *Classification, backends []Backend, opts OptimalOptions) (*OptimalResult, error) {
	return core.Optimal(cls, backends, opts)
}

// ---- classification ----

// Classification strategies (Section 3.1 granularities).
type Strategy = classify.Strategy

// Strategy values.
const (
	// TableBased groups queries by referenced tables (no partitioning).
	TableBased = classify.TableBased
	// ColumnBased groups by referenced columns (vertical partitioning).
	ColumnBased = classify.ColumnBased
	// Horizontal groups by partition-column ranges.
	Horizontal = classify.Horizontal
)

// Journal types for ClassifyJournal.
type (
	// JournalEntry is one distinguishable query with count and cost.
	JournalEntry = classify.Entry
	// ClassifyOptions configure the classification.
	ClassifyOptions = classify.Options
	// ClassifyResult is the classification plus the SQL-to-class map.
	ClassifyResult = classify.Result
	// HorizontalSpec configures range partitioning of one table.
	HorizontalSpec = classify.HorizontalSpec
	// Schema maps table names to column definitions.
	Schema = sqlmini.Schema
	// Engine is the embedded relational engine powering cluster
	// backends (and usable standalone).
	Engine = sqlmini.Engine
)

// NewEngine creates an empty embedded database engine.
var NewEngine = sqlmini.New

// ClassifyJournal analyzes a query journal against a schema and groups
// the queries into weighted classes (Section 3.1, Eqs. 2-4).
func ClassifyJournal(entries []JournalEntry, schema Schema, opts ClassifyOptions) (*ClassifyResult, error) {
	return classify.Classify(entries, schema, opts)
}

// ---- physical allocation (Section 3.4, Section 5) ----

// Migration types.
type (
	// MigrationPlan maps a new allocation onto the installed one.
	MigrationPlan = matching.Plan
	// ETLCostModel translates moved bytes into installation time.
	ETLCostModel = matching.ETLCostModel
)

// PlanMigration computes the cost-minimal mapping of newAlloc's
// backends onto oldAlloc's physical backends (Hungarian method on the
// Eq. 27 cost matrix). Differing backend counts express elastic scaling
// (Section 5); the second return value lists physical backends to
// decommission on scale-in.
func PlanMigration(oldAlloc, newAlloc *Allocation) (*MigrationPlan, []int, error) {
	return matching.PlanMigration(oldAlloc, newAlloc)
}

// MergeAllocations combines per-segment allocations into one allocation
// robust to periodic workload changes (Section 5).
func MergeAllocations(ref *Classification, segments []*Allocation) (*Allocation, error) {
	return matching.MergeAllocations(ref, segments)
}

// ---- simulation ----

// Simulation types (see internal/sim).
type (
	// SimOptions configure a cluster simulation.
	SimOptions = sim.Options
	// SimRequest is one simulated request.
	SimRequest = sim.Request
	// SimResult summarizes a simulation run.
	SimResult = sim.Result
)

// Simulate runs a closed-loop discrete-event simulation of the CDBS
// processing model over the allocation: n requests drawn from next,
// scheduled least-pending-first, updates via ROWA.
var Simulate = sim.RunClosedLoop

// ---- cluster runtime (Section 2 / Figure 3) ----

// Cluster runtime types (see internal/cluster).
type (
	// Cluster is the concurrent CDBS runtime: a controller with
	// embedded-engine backends, least-pending scheduling and ordered
	// ROWA update propagation.
	Cluster = cluster.Cluster
	// ClusterConfig configures NewCluster.
	ClusterConfig = cluster.Config
	// Loader populates a backend engine with tables.
	Loader = cluster.Loader
	// ClusterResult reports one executed request.
	ClusterResult = cluster.Result
	// ClusterStats summarizes a closed-loop run.
	ClusterStats = cluster.Stats
	// MigrationReport summarizes one live reallocation (Cluster.MigrateLive
	// or Cluster.ResizeLive).
	MigrationReport = cluster.MigrationReport
	// Request is an executable query with routing metadata.
	Request = workload.Request
)

// NewCluster creates a cluster runtime with empty backends; Install an
// allocation to load data and start serving.
var NewCluster = cluster.New

// ---- controller network protocol (Figure 1's client tier) ----

// Server types (see internal/server).
type (
	// Server serves a cluster controller over TCP in length-prefixed
	// binary frames (DESIGN.md §12).
	Server = server.Server
	// ServerRequest is one client message.
	ServerRequest = server.Request
	// ServerResponse is one server message.
	ServerResponse = server.Response
	// Client is a pipelined, overload-aware controller client.
	Client = server.Client
	// ClientOptions tunes the client's retry/backoff/breaker reaction.
	ClientOptions = server.ClientOptions
	// Stmt is a server-side prepared-statement handle: parsed and routed
	// once at Prepare, executed repeatedly shipping only argument values.
	Stmt = server.Stmt
	// ServerLimits bounds the server's edge (connections, inflight,
	// admission queue, drain) — see DESIGN.md §12.
	ServerLimits = server.Limits
	// OverloadError is a typed admission-shed rejection with its
	// retry-after hint.
	OverloadError = server.OverloadError
	// DrainingError is the typed rejection of a shutting-down server.
	DrainingError = server.DrainingError
	// WireError is a typed protocol-level rejection (oversized or
	// undecodable frame, bad prepared-statement handle, expired
	// deadline) carrying its machine-readable code.
	WireError = server.WireError
)

// Serve starts serving a cluster on a listener; Dial connects to a
// served controller (DialOptions with explicit overload-reaction
// options).
var (
	Serve       = server.Serve
	Dial        = server.Dial
	DialOptions = server.DialOptions
)
