package candcache

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"prague/internal/faultinject"
	"prague/internal/intset"
	"prague/internal/metrics"
	"prague/internal/trace"
)

// v0 is the version the single-version tests compute and look up at.
var v0 = Version{Epoch: 0, Tag: "s1:fp0@0"}

func TestNewDisabled(t *testing.T) {
	if c := New(0, nil); c != nil {
		t.Fatal("New(0) should return nil (cache disabled)")
	}
	if c := New(-1, nil); c != nil {
		t.Fatal("New(-1) should return nil (cache disabled)")
	}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k", v0); ok {
		t.Fatal("nil cache reported a hit")
	}
	c.Put("k", v0, []int{1})
	ids, err := c.Do(context.Background(), "k", v0, nil, func(context.Context) ([]int, error) {
		return []int{1, 2}, nil
	})
	if err != nil || !intset.Equal(ids, []int{1, 2}) {
		t.Fatalf("nil cache Do = %v, %v; want pass-through compute", ids, err)
	}
	if c.Len() != 0 || c.SizeBytes() != 0 {
		t.Fatal("nil cache reports residency")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", s)
	}
}

func TestPutGet(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(1<<20, reg)
	if _, ok := c.Get("a", v0); ok {
		t.Fatal("empty cache hit")
	}
	src := []int{3, 1, 4}
	c.Put("a", v0, src)
	src[0] = 99 // the cache must have cloned
	ids, ok := c.Get("a", v0)
	if !ok {
		t.Fatal("resident key missed")
	}
	if !intset.Equal(ids, []int{3, 1, 4}) {
		t.Fatalf("Get = %v, want the value as stored (caller mutation must not leak)", ids)
	}
	snap := reg.Snapshot().Counters
	if snap[metrics.CounterCandHits] != 1 || snap[metrics.CounterCandMisses] != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", snap[metrics.CounterCandHits], snap[metrics.CounterCandMisses])
	}
	if snap[metrics.CounterCandEntries] != 1 {
		t.Fatalf("entries gauge = %d, want 1", snap[metrics.CounterCandEntries])
	}
	if c.SizeBytes() <= 0 {
		t.Fatal("resident bytes not accounted")
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget sized so each shard holds ~2 small entries. Keys are forced into
	// one shard by probing: with 16 shards a handful of distinct keys spreads
	// out, so instead give the whole cache a budget small enough that a few
	// entries overflow whichever shard they land in.
	c := New(numShards*300, nil) // 300 bytes per shard ≈ 2 entries of ~130 bytes
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("key-%02d", i), v0, []int{i, i + 1, i + 2})
	}
	if c.Len() >= 64 {
		t.Fatalf("no eviction happened: %d entries resident", c.Len())
	}
	if got := c.Stats().Evictions; got == 0 {
		t.Fatal("eviction counter stayed zero")
	}
	var budget int64 = 300
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if sh.bytes > budget && sh.lru.Len() > 1 {
			t.Fatalf("shard %d over budget: %d bytes, %d entries", i, sh.bytes, sh.lru.Len())
		}
		sh.mu.Unlock()
	}
	if c.Stats().Entries != int64(c.Len()) {
		t.Fatalf("entries gauge %d != Len %d", c.Stats().Entries, c.Len())
	}
}

func TestOversizedEntryNotStored(t *testing.T) {
	c := New(numShards*200, nil)
	big := make([]int, 1024) // ~8KiB ≫ 200-byte shard budget
	c.Put("big", v0, big)
	if _, ok := c.Get("big", v0); ok {
		t.Fatal("entry larger than a shard budget was stored")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New(1<<20, nil)
	const waiters = 8
	var computes atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	compute := func(context.Context) ([]int, error) {
		computes.Add(1)
		close(entered)
		<-release
		return []int{7, 8}, nil
	}

	var wg sync.WaitGroup
	results := make([][]int, waiters)
	errs := make([]error, waiters)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = c.Do(context.Background(), "k", v0, nil, compute)
	}()
	<-entered // the leader is inside compute; everyone else must coalesce
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Do(context.Background(), "k", v0, nil, compute)
		}(i)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1 (singleflight)", n)
	}
	for i := range results {
		if errs[i] != nil || !intset.Equal(results[i], []int{7, 8}) {
			t.Fatalf("caller %d: got %v, %v", i, results[i], errs[i])
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Coalesced != waiters-1 {
		t.Fatalf("hits+coalesced = %d, want %d", s.Hits+s.Coalesced, waiters-1)
	}
}

func TestDoErrorPublishesNothing(t *testing.T) {
	c := New(1<<20, nil)
	boom := errors.New("boom")
	partial := []int{1}
	ids, err := c.Do(context.Background(), "k", v0, nil, func(context.Context) ([]int, error) {
		return partial, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !intset.Equal(ids, partial) {
		t.Fatalf("partial value not passed through: %v", ids)
	}
	if _, ok := c.Get("k", v0); ok {
		t.Fatal("failed computation was published")
	}
	// The next Do is a fresh leader and publishes.
	ids, err = c.Do(context.Background(), "k", v0, nil, func(context.Context) ([]int, error) {
		return []int{2, 3}, nil
	})
	if err != nil || !intset.Equal(ids, []int{2, 3}) {
		t.Fatalf("retry Do = %v, %v", ids, err)
	}
	if s := c.Stats(); s.Misses < 2 {
		t.Fatalf("misses = %d, want ≥ 2 (error did not cache)", s.Misses)
	}
}

// TestDoLeaderFailureWaiterTakesOver: when the leader's computation fails —
// a cancelled verification — a blocked waiter must become the next leader
// rather than inherit the failure.
func TestDoLeaderFailureWaiterTakesOver(t *testing.T) {
	c := New(1<<20, nil)
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	compute := func(context.Context) ([]int, error) {
		switch calls.Add(1) {
		case 1:
			close(entered)
			<-release
			return nil, context.Canceled
		default:
			return []int{42}, nil
		}
	}

	leaderErr := make(chan error)
	go func() {
		_, err := c.Do(context.Background(), "k", v0, nil, compute)
		leaderErr <- err
	}()
	<-entered

	waiterDone := make(chan struct{})
	var waiterIDs []int
	var waiterErr error
	go func() {
		defer close(waiterDone)
		waiterIDs, waiterErr = c.Do(context.Background(), "k", v0, nil, compute)
	}()
	close(release)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	<-waiterDone
	if waiterErr != nil || !intset.Equal(waiterIDs, []int{42}) {
		t.Fatalf("waiter got %v, %v; want a successful takeover", waiterIDs, waiterErr)
	}
	if ids, ok := c.Get("k", v0); !ok || !intset.Equal(ids, []int{42}) {
		t.Fatalf("takeover result not published: %v, %v", ids, ok)
	}
}

func TestDoWaiterHonoursOwnContext(t *testing.T) {
	c := New(1<<20, nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go c.Do(context.Background(), "k", v0, nil, func(context.Context) ([]int, error) {
		close(entered)
		<-release
		return []int{1}, nil
	})
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Do(ctx, "k", v0, nil, func(context.Context) ([]int, error) {
		t.Error("waiter with dead context must not compute")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestHitRatio(t *testing.T) {
	if r := (Stats{}).HitRatio(); r != 0 {
		t.Fatalf("zero-traffic hit ratio = %v, want 0", r)
	}
	s := Stats{Hits: 6, Coalesced: 2, Misses: 2}
	if r := s.HitRatio(); r != 0.8 {
		t.Fatalf("hit ratio = %v, want 0.8", r)
	}
}

// TestConcurrentMixedUse hammers the cache from many goroutines; run under
// -race (verify.sh does) to check the locking discipline.
func TestConcurrentMixedUse(t *testing.T) {
	c := New(1<<16, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%97)
				switch i % 3 {
				case 0:
					ids, err := c.Do(ctx, key, v0, nil, func(context.Context) ([]int, error) {
						return []int{i, i + 1}, nil
					})
					if err != nil || len(ids) != 2 {
						t.Errorf("Do(%s) = %v, %v", key, ids, err)
						return
					}
				case 1:
					if ids, ok := c.Get(key, v0); ok && len(ids) != 2 {
						t.Errorf("Get(%s) = %v", key, ids)
						return
					}
				default:
					c.Put(key, v0, []int{i, i + 1})
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Fatal("nothing resident after the hammer")
	}
}

// TestLookup: Lookup reports a miss as one to publish and a resident key as
// a hit, each as a cand_fetch span; a cache fault bypasses the cache and
// forbids publishing; a nil cache never hits and never publishes.
func TestLookup(t *testing.T) {
	c := New(1<<20, nil)
	tr := trace.New(trace.Options{Enabled: true})
	ctx, root := tr.StartRoot(context.Background(), trace.KindRun)
	if _, ok, publish := c.Lookup(ctx, "k", v0); ok || !publish {
		t.Fatalf("cold key: ok=%v publish=%v, want a miss to publish", ok, publish)
	}
	c.Put("k", v0, []int{1, 2})
	if ids, ok, publish := c.Lookup(ctx, "k", v0); !ok || publish || !intset.Equal(ids, []int{1, 2}) {
		t.Fatalf("resident key: %v ok=%v publish=%v, want a hit", ids, ok, publish)
	}
	inj := faultinject.New()
	inj.Set(faultinject.SiteCache, faultinject.Rule{Every: 1, Err: true})
	if _, ok, publish := c.Lookup(faultinject.With(ctx, inj), "k", v0); ok || publish {
		t.Fatalf("faulted lookup: ok=%v publish=%v, want a bypass", ok, publish)
	}
	root.End()
	got := map[string]int64{}
	root.Data().Walk(func(s *trace.SpanData) {
		if s.Kind == trace.KindCandFetch.String() {
			for k, n := range s.Counts {
				got[k] += n
			}
		}
	})
	if want := map[string]int64{"miss": 1, "hit": 1, "fault_bypass": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("cand_fetch counts %v, want %v", got, want)
	}
	var nilCache *Cache
	if _, ok, publish := nilCache.Lookup(ctx, "k", v0); ok || publish {
		t.Errorf("nil cache: ok=%v publish=%v, want neither", ok, publish)
	}
}

// Versions of one store lineage for the versioned-entry tests: v2 follows
// v1 by one mutation.
var (
	v1 = Version{Epoch: 1, Tag: "s4:aa@1"}
	v2 = Version{Epoch: 2, Tag: "s4:bb@2"}
)

// fetchCounts runs fn under a traced root and sums the outcome counts of
// the cand_fetch spans it recorded.
func fetchCounts(fn func(ctx context.Context)) map[string]int64 {
	tr := trace.New(trace.Options{Enabled: true})
	ctx, root := tr.StartRoot(context.Background(), trace.KindRun)
	fn(ctx)
	root.End()
	got := map[string]int64{}
	root.Data().Walk(func(s *trace.SpanData) {
		if s.Kind == trace.KindCandFetch.String() {
			for k, n := range s.Counts {
				got[k] += n
			}
		}
	})
	return got
}

// noCompute and noCarry fail a test whose lookup must not reach them.
func noCompute(t *testing.T) func(context.Context) ([]int, error) {
	return func(context.Context) ([]int, error) {
		t.Error("compute ran")
		return nil, errors.New("compute ran")
	}
}

func noCarry(t *testing.T) Carry {
	return func(context.Context, Version, []int) ([]int, error) {
		t.Error("carry ran")
		return nil, errors.New("carry ran")
	}
}

// TestKeyDropsVersion: the key keeps a tag's layout token and drops the
// fingerprint and epoch, which belong to the entry's version.
func TestKeyDropsVersion(t *testing.T) {
	if a, b := Key(KeyContainment, v1.Tag, "c"), Key(KeyContainment, v2.Tag, "c"); a != b {
		t.Errorf("keys of one layout at two versions differ: %q vs %q", a, b)
	}
	if a, b := Key(KeyContainment, "s1:aa@1", "c"), Key(KeyContainment, "s4:aa@1", "c"); a == b {
		t.Errorf("two layouts share key %q", a)
	}
}

// TestVersionedHit: an entry is served at its own version only, and a hit
// runs neither carry nor compute.
func TestVersionedHit(t *testing.T) {
	c := New(1<<20, nil)
	c.Put("k", v1, []int{1, 2})
	if _, ok := c.Get("k", v2); ok {
		t.Fatal("an entry at v1 was served at v2")
	}
	var ids []int
	got := fetchCounts(func(ctx context.Context) {
		var err error
		ids, err = c.Do(ctx, "k", v1, noCarry(t), noCompute(t))
		if err != nil {
			t.Fatal(err)
		}
	})
	if !intset.Equal(ids, []int{1, 2}) || got["hit"] != 1 {
		t.Fatalf("Do at the entry's version = %v with cand_fetch %v, want the entry and one hit", ids, got)
	}
}

// TestDoCarriesOlderVersion: a lookup at a newer version than the resident
// entry calls carry once, returns and republishes its result at the new
// version, and serves the next lookup as a hit.
func TestDoCarriesOlderVersion(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(1<<20, reg)
	c.Put("k", v1, []int{1, 2, 3})
	calls := 0
	carry := func(_ context.Context, from Version, ids []int) ([]int, error) {
		calls++
		if from != v1 || !intset.Equal(ids, []int{1, 2, 3}) {
			t.Errorf("carry got %v from %v, want [1 2 3] from %v", ids, from, v1)
		}
		return append(intset.Diff(ids, []int{2}), 7), nil
	}
	var ids []int
	got := fetchCounts(func(ctx context.Context) {
		var err error
		if ids, err = c.Do(ctx, "k", v2, carry, noCompute(t)); err != nil {
			t.Fatal(err)
		}
	})
	want := []int{1, 3, 7}
	if calls != 1 || !intset.Equal(ids, want) || got["carried"] != 1 {
		t.Fatalf("carry ran %d times, Do = %v, cand_fetch %v; want 1, %v and one carried", calls, ids, got, want)
	}
	if now, ok := c.Get("k", v2); !ok || !intset.Equal(now, want) {
		t.Fatalf("carried entry not republished at v2: %v, %v", now, ok)
	}
	if _, ok := c.Get("k", v1); ok {
		t.Fatal("the v1 entry is still served after the carry replaced it")
	}
	if ids, err := c.Do(context.Background(), "k", v2, carry, noCompute(t)); err != nil || calls != 1 || !intset.Equal(ids, want) {
		t.Fatalf("second Do at v2 = %v, %v after %d carries; want a hit", ids, err, calls)
	}
	s := c.Stats()
	if s.Carried != 1 || reg.Snapshot().Counters[metrics.CounterCandCarried] != 1 || c.Len() != 1 {
		t.Fatalf("stats %+v, %d entries; want one carry and one entry", s, c.Len())
	}
}

// TestOlderEpochDoesNotOverwrite: a session pinned to an older epoch gets
// its own computation, but neither Do nor Put lets it replace the newer
// resident entry, and it is never handed to carry (carries run forward only).
func TestOlderEpochDoesNotOverwrite(t *testing.T) {
	c := New(1<<20, nil)
	c.Put("k", v2, []int{4, 5})
	ids, err := c.Do(context.Background(), "k", v1, noCarry(t), func(context.Context) ([]int, error) {
		return []int{4}, nil
	})
	if err != nil || !intset.Equal(ids, []int{4}) {
		t.Fatalf("Do at the older version = %v, %v; want its own computation", ids, err)
	}
	c.Put("k", v1, []int{4})
	if now, ok := c.Get("k", v2); !ok || !intset.Equal(now, []int{4, 5}) {
		t.Fatalf("the v2 entry was replaced by an older one: %v, %v", now, ok)
	}
	if _, ok := c.Get("k", v1); ok {
		t.Fatal("an older-epoch result was published")
	}
}

// TestFailedCarryFallsBackToCompute: a carry that fails (a version outside
// the history, a faulted check) is a miss: compute runs and its result is
// published at the caller's version.
func TestFailedCarryFallsBackToCompute(t *testing.T) {
	c := New(1<<20, nil)
	c.Put("k", v1, []int{1})
	carries, computes := 0, 0
	ids, err := c.Do(context.Background(), "k", v2,
		func(context.Context, Version, []int) ([]int, error) {
			carries++
			return nil, errors.New("not in history")
		},
		func(context.Context) ([]int, error) {
			computes++
			return []int{1, 9}, nil
		})
	if err != nil || !intset.Equal(ids, []int{1, 9}) || carries != 1 || computes != 1 {
		t.Fatalf("Do = %v, %v after %d carries and %d computes; want the computed set after one of each", ids, err, carries, computes)
	}
	if now, ok := c.Get("k", v2); !ok || !intset.Equal(now, []int{1, 9}) {
		t.Fatalf("computed set not published at v2: %v, %v", now, ok)
	}
	if s := c.Stats(); s.Carried != 0 || s.Misses != 1 {
		t.Fatalf("stats %+v, want one miss and no carry", s)
	}
}

// TestConcurrentCarryCoalesces: concurrent lookups at a new version
// coalesce behind one leader, whose carry runs exactly once.
func TestConcurrentCarryCoalesces(t *testing.T) {
	c := New(1<<20, nil)
	c.Put("k", v1, []int{1})
	const waiters = 6
	var carries atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	carry := func(_ context.Context, _ Version, ids []int) ([]int, error) {
		carries.Add(1)
		close(entered)
		<-release
		return append(intset.Clone(ids), 2), nil
	}
	results := make([][]int, waiters)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _ = c.Do(context.Background(), "k", v2, carry, noCompute(t))
	}()
	<-entered
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = c.Do(context.Background(), "k", v2, carry, noCompute(t))
		}(i)
	}
	close(release)
	wg.Wait()
	if n := carries.Load(); n != 1 {
		t.Fatalf("carry ran %d times, want exactly 1", n)
	}
	for i, ids := range results {
		if !intset.Equal(ids, []int{1, 2}) {
			t.Fatalf("caller %d got %v, want [1 2]", i, ids)
		}
	}
	if s := c.Stats(); s.Carried != 1 || s.Hits+s.Coalesced != waiters-1 {
		t.Fatalf("stats %+v, want one carry and %d hits or coalesced waits", s, waiters-1)
	}
}

// TestCancelledComputePublishesNothing: when the carry fails under a
// cancelled context and the compute it falls back to is cancelled too,
// nothing is published and the older entry stays resident for the next
// session to carry.
func TestCancelledComputePublishesNothing(t *testing.T) {
	c := New(1<<20, nil)
	c.Put("k", v1, []int{1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Do(ctx, "k", v2,
		func(ctx context.Context, _ Version, _ []int) ([]int, error) { return nil, ctx.Err() },
		func(ctx context.Context) ([]int, error) { return []int{1}, ctx.Err() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, ok := c.Get("k", v2); ok {
		t.Fatal("a cancelled computation was published")
	}
	if _, ok := c.Get("k", v1); !ok {
		t.Fatal("the older entry was dropped by a cancelled computation")
	}
}
