package tally

import (
	"sync"
	"testing"
)

func TestTableRows(t *testing.T) {
	seen := map[string]bool{}
	for id, r := range Table {
		if r.Name == "" || seen[r.Name] {
			t.Fatalf("row %d: missing or duplicate name %q", id, r.Name)
		}
		seen[r.Name] = true
	}
}

func TestMergeAndSub(t *testing.T) {
	var a, b Vec
	a[Samples], a[ArenaBytes], a[Q] = 3, 4096, 7
	b[Samples], b[ArenaBytes], b[Q], b[EasyCase] = 2, 8192, 5, 1

	m := a.Merge(b)
	if m[Samples] != 5 || m[ArenaBytes] != 8192 || m[Q] != 7 || m[EasyCase] != 1 {
		t.Fatalf("merged = %v", m)
	}
	if m != b.Merge(a) {
		t.Fatalf("merge is order-sensitive: %v vs %v", m, b.Merge(a))
	}
	if a[Samples] != 3 {
		t.Fatal("Merge mutated its receiver")
	}

	d := m.Sub(a)
	if d[Samples] != 2 || d[ArenaBytes] != 8192 || d[Q] != 7 {
		t.Fatalf("delta = %v: counters difference, gauges keep the later value", d)
	}
}

func TestTotalsFold(t *testing.T) {
	var tot Totals
	var wg sync.WaitGroup
	for i := int64(1); i <= 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var v Vec
			v[Conflicts], v[ArenaBytes] = i, 100*i
			tot.Fold(v)
		}()
	}
	wg.Wait()
	if got := tot.Load(); got[Conflicts] != 36 || got[ArenaBytes] != 800 {
		t.Fatalf("totals = %v, want conflicts 36 and arena_bytes max 800", got)
	}
}
