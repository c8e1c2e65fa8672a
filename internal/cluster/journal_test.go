package cluster

import (
	"fmt"
	"testing"
	"time"

	"qcpa/internal/core"
)

// TestEvictJournalDropsLeastFrequent exercises evictJournalLocked
// directly: with distinct counts 1..16 the least-frequent eighth (two
// entries) goes, the hot tail stays.
func TestEvictJournalDropsLeastFrequent(t *testing.T) {
	c, err := New(Config{Backends: core.UniformBackends(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 16; i++ {
		sql := fmt.Sprintf("SELECT a_v FROM a WHERE a_id = %d", i)
		for k := 0; k <= i; k++ {
			c.record(sql, time.Millisecond)
		}
	}
	c.journalMu.Lock()
	defer c.journalMu.Unlock()
	if len(c.journal) != 16 {
		t.Fatalf("journal holds %d entries, want 16", len(c.journal))
	}
	c.evictJournalLocked()
	if len(c.journal) != 14 {
		t.Fatalf("journal holds %d entries after evict, want 14", len(c.journal))
	}
	for i := 0; i < 16; i++ {
		sql := fmt.Sprintf("SELECT a_v FROM a WHERE a_id = %d", i)
		_, ok := c.journal[sql]
		if want := i >= 2; ok != want {
			t.Fatalf("entry with count %d: present = %v, want %v", i+1, ok, want)
		}
	}

	// The coldest entry goes even when its key sorts last: uses
	// {z:1, a:2, b:2, ..., o:2}, quota two, evicts z and a — not a and b.
	clear(c.journal)
	c.journal["z"] = &journalLine{count: 1}
	for k := 'a'; k <= 'o'; k++ {
		c.journal[string(k)] = &journalLine{count: 2}
	}
	c.evictJournalLocked()
	for _, key := range []string{"z", "a"} {
		if _, ok := c.journal[key]; ok {
			t.Fatalf("entry %q survived the eviction of the coldest two", key)
		}
	}
	if _, ok := c.journal["b"]; !ok || len(c.journal) != 14 {
		t.Fatalf("journal after evict: b present = %v, %d entries; want b kept, 14 entries", ok, len(c.journal))
	}
}

// TestEvictJournalTiesAndSingleton covers the edge cases: an all-equal
// journal loses exactly the quota (not every tied entry), and a
// one-entry journal still frees a slot.
func TestEvictJournalTiesAndSingleton(t *testing.T) {
	c, err := New(Config{Backends: core.UniformBackends(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 32; i++ {
		c.record(fmt.Sprintf("SELECT a_v FROM a WHERE a_id = %d", i), time.Millisecond)
	}
	c.journalMu.Lock()
	c.evictJournalLocked()
	got := len(c.journal)
	c.journalMu.Unlock()
	if got != 28 { // quota = 32/8 even though every count ties
		t.Fatalf("tied journal holds %d after evict, want 28", got)
	}

	c2, err := New(Config{Backends: core.UniformBackends(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.record("SELECT a_v FROM a WHERE a_id = 0", time.Millisecond)
	c2.journalMu.Lock()
	c2.evictJournalLocked()
	got = len(c2.journal)
	c2.journalMu.Unlock()
	if got != 0 { // quota floors at one entry
		t.Fatalf("singleton journal holds %d after evict, want 0", got)
	}
}

// TestStmtCacheWholesaleFlush fills the prepared-statement cache past
// its bound with distinct texts and checks the eviction policy that
// replaced the old wholesale flush: the insert past the cap drops the
// least-frequently-used eighth, frequently re-parsed statements
// survive, and parsing keeps working after.
func TestStmtCacheWholesaleFlush(t *testing.T) {
	c, err := New(Config{Backends: core.UniformBackends(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sqlAt := func(i int) string { return fmt.Sprintf("SELECT a_v FROM a WHERE a_id = %d", i) }
	for i := 0; i <= stmtCacheCap; i++ {
		if _, err := c.parse(sqlAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Heat up a subset so it outranks the single-use bulk.
	for k := 0; k < 3; k++ {
		for i := 0; i < 100; i++ {
			if _, err := c.parse(sqlAt(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.stmtMu.RLock()
	n := len(c.stmtCache)
	c.stmtMu.RUnlock()
	if n != stmtCacheCap+1 { // eviction triggers on the insert after the bound, not at it
		t.Fatalf("cache holds %d before evict, want %d", n, stmtCacheCap+1)
	}
	// The next distinct statement triggers eviction of an eighth.
	if _, err := c.parse(sqlAt(stmtCacheCap + 1)); err != nil {
		t.Fatal(err)
	}
	want := stmtCacheCap + 1 - (stmtCacheCap+1)/8 + 1
	c.stmtMu.RLock()
	n = len(c.stmtCache)
	c.stmtMu.RUnlock()
	if n != want {
		t.Fatalf("cache holds %d after evict, want %d", n, want)
	}
	// Hot statements and the triggering statement survived.
	c.stmtMu.RLock()
	for i := 0; i < 100; i++ {
		if _, ok := c.stmtCache[sqlAt(i)]; !ok {
			c.stmtMu.RUnlock()
			t.Fatalf("hot statement %d evicted", i)
		}
	}
	_, ok := c.stmtCache[sqlAt(stmtCacheCap+1)]
	c.stmtMu.RUnlock()
	if !ok {
		t.Fatal("triggering statement not cached")
	}
	// An evicted statement re-parses and re-enters the cache.
	c.stmtMu.Lock()
	for sql := range c.stmtCache {
		delete(c.stmtCache, sql)
	}
	c.stmtMu.Unlock()
	if _, err := c.parse(sqlAt(0)); err != nil {
		t.Fatal(err)
	}
	c.stmtMu.RLock()
	_, ok = c.stmtCache[sqlAt(0)]
	c.stmtMu.RUnlock()
	if !ok {
		t.Fatal("re-parsed statement not cached")
	}
}
