package cluster

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qcpa/internal/core"
	"qcpa/internal/workload"
)

// TestGroupCommitPinnedViewAcrossCutover pins a snapshot view on a
// backend engine, then runs a live migration that both replays deltas
// into that backend and hands it a brand-new table at cutover. The
// pinned view must keep answering from its own epoch: the old rows,
// not the delta-replayed ones, and no sign of the table that arrived
// after the pin.
func TestGroupCommitPinnedViewAcrossCutover(t *testing.T) {
	c, cl, loader := liveFixture(t)
	// B2 holds only b before the migration; pin its state now.
	eng := c.Backend(1)
	v := eng.AcquireView()
	baseEpoch := v.Epoch()
	baseSum, err := eng.QueryView(v, `SELECT SUM(b_v) FROM b`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryView(v, `SELECT a_v FROM a`); err == nil {
		t.Fatal("pinned view sees table a before the migration shipped it")
	}

	// The migration ships a to B2 and, via the onBatch hook, races
	// updates against the copy so B2 applies post-pin writes to b and
	// delta-replays writes to a.
	opts := LiveOptions{
		BatchRows: 5,
		onBatch: func(dest, table string) {
			for _, req := range []workload.Request{
				{SQL: `UPDATE a SET a_v = a_v + 1 WHERE a_id = 3`, Class: "UA", Write: true},
				{SQL: `UPDATE b SET b_v = b_v + 10 WHERE b_id = 3`, Class: "UB", Write: true},
			} {
				if _, err := c.Execute(req); err != nil {
					t.Errorf("injected update %q: %v", req.SQL, err)
				}
			}
		},
	}
	if _, err := c.MigrateLive(fullAlloc(t, cl), loader, opts); err != nil {
		t.Fatal(err)
	}

	// The pinned view still answers from the pre-migration epoch.
	if got, err := eng.QueryView(v, `SELECT SUM(b_v) FROM b`); err != nil {
		t.Fatal(err)
	} else if got.Rows[0][0].I != baseSum.Rows[0][0].I {
		t.Fatalf("pinned view sum moved: %d -> %d", baseSum.Rows[0][0].I, got.Rows[0][0].I)
	}
	if _, err := eng.QueryView(v, `SELECT a_v FROM a`); err == nil {
		t.Fatal("pinned view sees table a that arrived after the pin")
	}
	if v.Epoch() != baseEpoch {
		t.Fatalf("pinned epoch moved: %d -> %d", baseEpoch, v.Epoch())
	}

	// The live engine moved on: it holds a (with the delta-replayed
	// updates) and the post-pin b writes.
	if eng.Epoch() <= baseEpoch {
		t.Fatalf("engine epoch did not advance past %d", baseEpoch)
	}
	r, err := eng.Exec(`SELECT a_v FROM a WHERE a_id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I <= 3 {
		t.Fatalf("live engine missing delta-replayed updates: a_v = %d", r.Rows[0][0].I)
	}
	live, err := eng.Exec(`SELECT SUM(b_v) FROM b`)
	if err != nil {
		t.Fatal(err)
	}
	if live.Rows[0][0].I <= baseSum.Rows[0][0].I {
		t.Fatalf("live engine missing post-pin b writes: sum %d <= %d", live.Rows[0][0].I, baseSum.Rows[0][0].I)
	}
	// Both replicas of a converged despite the concurrent deltas.
	if s0, s1 := mustChecksum(t, c.Backend(0), "a"), mustChecksum(t, c.Backend(1), "a"); s0 != s1 {
		t.Fatalf("replicas of a diverged: %x vs %x", s0, s1)
	}
}

// TestGroupChaosKillMidRound is the group-commit fault acceptance test:
// with batching forced on (a linger window so rounds genuinely carry
// multiple updates), a chaos runner kills and revives backends while
// concurrent writers stream group-committed rounds. No request may
// fail — a victim killed mid-round diverts to its redo log at round
// granularity — and after the last recovery every replica must agree
// bit-for-bit: a crash between the statements of a round must never
// leave a half-applied group behind.
func TestGroupChaosKillMidRound(t *testing.T) {
	c := fullSetup(t, 4, Config{
		Backends:    core.UniformBackends(4),
		Backoff:     time.Millisecond,
		GroupCommit: GroupCommitConfig{MaxBatch: 16, MaxWait: 2 * time.Millisecond},
	})
	ch := NewChaos(c, ChaosConfig{Kills: 3, DownFor: 40 * time.Millisecond, Pause: 5 * time.Millisecond, Seed: 11})
	ch.Start()

	var (
		wg        sync.WaitGroup
		completed atomic.Int64
		mu        sync.Mutex
		failures  int
		firstErr  error
	)
	deadline := time.Now().Add(300 * time.Millisecond)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for time.Now().Before(deadline) {
				var req workload.Request
				if rng.Float64() < 0.7 {
					// Non-commutative updates: replicas agree on the final
					// state only if every round applied in the same order.
					req = workload.Request{
						SQL:   fmt.Sprintf(`UPDATE b SET b_v = b_v * 3 + %d WHERE b_id = %d`, 1+rng.Intn(5), rng.Intn(10)),
						Class: "UB", Write: true,
					}
				} else {
					req = workload.Request{SQL: `SELECT SUM(b_v) FROM b`, Class: "QB"}
				}
				if _, err := c.Execute(req); err != nil {
					mu.Lock()
					failures++
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				} else {
					completed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	rep := ch.Stop()

	if failures > 0 {
		t.Fatalf("%d of %d requests failed under group-commit chaos; first: %v",
			failures, failures+int(completed.Load()), firstErr)
	}
	if completed.Load() == 0 {
		t.Fatal("workload executed nothing")
	}
	if rep.Kills == 0 {
		t.Fatal("chaos never killed a backend")
	}
	for _, ev := range rep.Events {
		if ev.Err != "" {
			t.Fatalf("recovery of %s failed: %s", ev.Backend, ev.Err)
		}
	}
	// Everyone back up with drained redo logs.
	for _, bh := range c.Health().Backends {
		if bh.State != "up" || bh.RedoLen != 0 || bh.RedoLost {
			t.Fatalf("backend %s after chaos: %+v", bh.Name, bh)
		}
	}
	// All four replicas agree on every table: no half-committed round
	// survived the kills.
	want, err := c.Backend(0).Checksums(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		got, err := c.Backend(i).Checksums(nil)
		if err != nil {
			t.Fatal(err)
		}
		for tb, sum := range want {
			if got[tb] != sum {
				t.Fatalf("backend %d table %s diverged after chaos: %x vs %x", i, tb, got[tb], sum)
			}
		}
	}
	// The linger window actually batched: strictly more updates than
	// rounds means multi-statement groups were killed and recovered.
	g := c.Metrics().GroupCommit
	if g.Rounds == 0 || g.Updates <= g.Rounds {
		t.Fatalf("no batching under chaos: %d updates in %d rounds", g.Updates, g.Rounds)
	}
}

// TestGroupCommitReplicasAgreeAcrossWorkerCounts checks the
// deterministic total order end to end: the same concurrent
// non-commutative workload, run with the clients and the per-backend
// apply goroutines fanned out over 1 scheduler thread and over 4
// (GOMAXPROCS), must leave every replica of a cluster bit-identical —
// the order a round applies in is a pure function of the admitted
// statements, not of goroutine scheduling.
func TestGroupCommitReplicasAgreeAcrossWorkerCounts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("fanout=%d", workers), func(t *testing.T) {
			defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(workers))
			c := fullSetup(t, 3, Config{
				Backends:    core.UniformBackends(3),
				GroupCommit: GroupCommitConfig{MaxBatch: 8, MaxWait: time.Millisecond},
			})
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + w)))
					for i := 0; i < 40; i++ {
						req := workload.Request{
							SQL:   fmt.Sprintf(`UPDATE a SET a_v = a_v * 3 + %d WHERE a_id = %d`, 1+rng.Intn(7), rng.Intn(10)),
							Class: "UA", Write: true,
						}
						if _, err := c.Execute(req); err != nil {
							t.Errorf("write failed: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			// All replicas bit-identical, and every backend sits on the
			// same epoch: each applied the same rounds at the same
			// boundaries.
			want, err := c.Backend(0).Checksums(nil)
			if err != nil {
				t.Fatal(err)
			}
			epoch := c.Backend(0).Epoch()
			for i := 1; i < 3; i++ {
				got, err := c.Backend(i).Checksums(nil)
				if err != nil {
					t.Fatal(err)
				}
				for tb, sum := range want {
					if got[tb] != sum {
						t.Fatalf("backend %d table %s diverged: %x vs %x", i, tb, got[tb], sum)
					}
				}
				if e := c.Backend(i).Epoch(); e != epoch {
					t.Fatalf("backend %d epoch %d != backend 0 epoch %d", i, e, epoch)
				}
			}
		})
	}
}
