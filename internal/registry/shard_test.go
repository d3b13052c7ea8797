package registry

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func fill(t *testing.T, r *Registry, n int) {
	t.Helper()
	lots := []string{"A22", "B16", "D6", "E31", "F12"}
	for i := 0; i < n; i++ {
		e := Entity{
			ID:    ID(fmt.Sprintf("s%05d", i)),
			Kind:  "PresenceSensor",
			Attrs: Attributes{"parkingLot": lots[i%len(lots)]},
		}
		if i%10 == 0 {
			e.Kind = "DisplayPanel"
			e.Attrs = nil
		}
		if err := r.Register(e); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanMatchesDiscover checks that the lock-free-of-clones scan visits
// exactly the entities Discover returns, for kind, attribute and unfiltered
// queries.
func TestScanMatchesDiscover(t *testing.T) {
	r := New()
	defer r.Close()
	fill(t, r, 500)

	for _, q := range []Query{
		{},
		{Kind: "PresenceSensor"},
		{Kind: "PresenceSensor", Where: Attributes{"parkingLot": "A22"}},
		{Where: Attributes{"parkingLot": "B16"}},
		{Kind: "NoSuchKind"},
	} {
		want := make(map[ID]bool)
		for _, e := range r.Discover(q) {
			want[e.ID] = true
		}
		got := make(map[ID]bool)
		r.Scan(q, func(e Entity) bool {
			if got[e.ID] {
				t.Fatalf("query %+v visited %s twice", q, e.ID)
			}
			got[e.ID] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("query %+v: scan visited %d, discover returned %d", q, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("query %+v: scan missed %s", q, id)
			}
		}
	}
}

// TestScanEarlyStopAndLimit checks both ways of bounding a scan.
func TestScanEarlyStopAndLimit(t *testing.T) {
	r := New()
	defer r.Close()
	fill(t, r, 100)

	visits := 0
	r.Scan(Query{}, func(Entity) bool {
		visits++
		return visits < 7
	})
	if visits != 7 {
		t.Fatalf("early-stop scan visited %d, want 7", visits)
	}

	visits = 0
	r.Scan(Query{Kind: "PresenceSensor", Limit: 13}, func(Entity) bool {
		visits++
		return true
	})
	if visits != 13 {
		t.Fatalf("limited scan visited %d, want 13", visits)
	}
}

// TestScanDuringConcurrentMutation exercises scans racing registrations and
// unregistrations on other shards; run under -race this is the "no global
// lock" proof.
func TestScanDuringConcurrentMutation(t *testing.T) {
	r := New()
	defer r.Close()
	fill(t, r, 200)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := ID(fmt.Sprintf("churn-%04d", i%50))
			if i%2 == 0 {
				_ = r.Register(Entity{ID: id, Kind: "Churn"})
			} else {
				_ = r.Unregister(id)
			}
			i++
		}
	}()
	for i := 0; i < 50; i++ {
		n := 0
		r.Scan(Query{Kind: "PresenceSensor"}, func(e Entity) bool {
			n++
			return true
		})
		if n != 180 {
			t.Fatalf("scan %d visited %d stable sensors, want 180", i, n)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWithShardsSingle checks the one-shard configuration still serves the
// full API (the ablation baseline).
func TestWithShardsSingle(t *testing.T) {
	r := New(WithShards(1))
	defer r.Close()
	if r.ShardCount() != 1 {
		t.Fatalf("ShardCount = %d, want 1", r.ShardCount())
	}
	fill(t, r, 50)
	if got := r.Count(); got != 50 {
		t.Fatalf("Count = %d, want 50", got)
	}
	if got := len(r.Discover(Query{Kind: "PresenceSensor"})); got != 45 {
		t.Fatalf("Discover = %d, want 45", got)
	}
}

// TestShardCountDefault pins the default shard count.
func TestShardCountDefault(t *testing.T) {
	r := New()
	defer r.Close()
	if r.ShardCount() != DefaultShards {
		t.Fatalf("ShardCount = %d, want %d", r.ShardCount(), DefaultShards)
	}
}

// discoverBytes reports the heap bytes one Discover(q) allocates, averaged
// over runs.
func discoverBytes(r *Registry, q Query, runs int) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		r.Discover(q)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDiscoverRareKindDoesNotCopyShards: a kind registered in one shard
// only must cost the same to discover in a small and in a large fleet. A
// shard without the kind has no candidates; it must not fall back to
// copying its whole entity table.
func TestDiscoverRareKindDoesNotCopyShards(t *testing.T) {
	cost := func(n int) uint64 {
		r := New()
		defer r.Close()
		fill(t, r, n)
		if err := r.Register(Entity{ID: "panel-city", Kind: "CityPanel"}); err != nil {
			t.Fatal(err)
		}
		if got := r.Discover(Query{Kind: "CityPanel"}); len(got) != 1 {
			t.Fatalf("fleet %d: discovered %d city panels, want 1", n, len(got))
		}
		return discoverBytes(r, Query{Kind: "CityPanel"}, 50)
	}
	small, large := cost(100), cost(20000)
	if large > 2*small+1024 {
		t.Fatalf("Discover of a one-shard kind allocates %d B at 20k entities vs %d B at 100: scales with the fleet", large, small)
	}
}

// TestCandidatesPickSmallestPosting: a kind-plus-attribute query walks the
// smaller of the kind and attribute postings, whichever it is.
func TestCandidatesPickSmallestPosting(t *testing.T) {
	r := New(WithShards(1))
	defer r.Close()
	// 100 panels; 900 sensors, 100 in lot A22 and 200 in each other lot.
	fill(t, r, 1000)
	sh := &r.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	candidates := func(q Query) int {
		n := 0
		eachCandidateLocked(sh, q, func(*record) bool { n++; return true })
		return n
	}
	for _, tc := range []struct {
		q    Query
		want int
	}{
		{Query{Kind: "DisplayPanel", Where: Attributes{"parkingLot": "B16"}}, 100},
		{Query{Kind: "PresenceSensor", Where: Attributes{"parkingLot": "A22"}}, 100},
		{Query{Kind: "DisplayPanel"}, 100},
		{Query{Kind: "NoSuchKind"}, 0},
		{Query{Kind: "DisplayPanel", Where: Attributes{"parkingLot": "nowhere"}}, 0},
		{Query{Where: Attributes{"parkingLot": "B16"}}, 200},
	} {
		if got := candidates(tc.q); got != tc.want {
			t.Errorf("%+v: %d candidates, want %d", tc.q, got, tc.want)
		}
	}
	if got := candidates(Query{}); got != 1000 {
		t.Errorf("empty query visited %d candidates, want the whole table of 1000", got)
	}
}
