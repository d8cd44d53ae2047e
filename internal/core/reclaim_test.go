package core

import (
	"sync"
	"testing"

	"klsm/internal/block"
	"klsm/internal/xrand"
)

// drainAll deletes until the queue reports empty, returning the number of
// successful deletes. Single-threaded (call after workers have joined).
func drainAll[V any](t *testing.T, q *Queue[V], h *Handle[V]) int64 {
	t.Helper()
	var deletes int64
	misses := 0
	for q.Size() > 0 {
		if _, _, ok := h.TryDeleteMin(); ok {
			deletes++
			misses = 0
			continue
		}
		misses++
		if misses > 1000 {
			t.Fatalf("queue reports Size=%d but TryDeleteMin keeps failing", q.Size())
		}
	}
	return deletes
}

// TestReclaimAccountingSequential is the exactly-once ledger in its
// simplest setting: one handle, insert/delete everything, quiesce, and
// every taken item must have been released to the item pool exactly once.
func TestReclaimAccountingSequential(t *testing.T) {
	q := NewQueue(Config[int]{K: 64, Mode: Combined, LocalOrdering: true})
	h := q.NewHandle()
	rng := xrand.NewSeeded(17)

	const n = 20_000
	var inserted int64
	for i := 0; i < n; i++ {
		h.Insert(rng.Uint64(), i)
		inserted++
	}
	deleted := drainAll(t, q, h)
	if deleted != inserted {
		t.Fatalf("deleted %d of %d inserted", deleted, inserted)
	}
	q.Quiesce()
	rs := q.ReclaimStats()
	if rs.ItemPuts != inserted {
		t.Fatalf("item releases = %d, want exactly %d (reclaimed=%d leaked blocks=%d)",
			rs.ItemPuts, inserted, rs.ItemsReclaimed, rs.LimboLeaked)
	}
	if rs.ItemsLostLive != 0 {
		t.Fatalf("%d live items hit refcount zero (reachability bug)", rs.ItemsLostLive)
	}
	if rs.LimboLeaked != 0 {
		t.Fatalf("%d blocks leaked at a limbo cap in a single-threaded run", rs.LimboLeaked)
	}

	// A second round must be served largely from recycled items: the §4.4
	// loop is closed when inserts observe reuse.
	for i := 0; i < n; i++ {
		h.Insert(rng.Uint64(), i)
	}
	drainAll(t, q, h)
	q.Quiesce()
	rs2 := q.ReclaimStats()
	if rs2.ItemReuses == 0 {
		t.Fatal("no insert was served from a recycled item")
	}
	if rs2.ItemPuts != 2*inserted {
		t.Fatalf("after round two: releases = %d, want %d", rs2.ItemPuts, 2*inserted)
	}
}

// TestReclaimAccountingStress is the acceptance stress test: several
// goroutines churn the queue concurrently (exercising spy copies, shared
// CAS races, and the limbo paths), then the queue is emptied and quiesced —
// and the ledger must still balance exactly: one release per insert, no
// double-free (Unref panics on underflow, item.Pool.Put panics on live
// items), no lost-live items. Run under -race in CI.
func TestReclaimAccountingStress(t *testing.T) {
	const (
		workers = 4
		ops     = 30_000
	)
	q := NewQueue(Config[uint64]{K: 128, Mode: Combined, LocalOrdering: true})
	handles := make([]*Handle[uint64], workers)
	for i := range handles {
		handles[i] = q.NewHandle()
	}

	var wg sync.WaitGroup
	inserts := make([]int64, workers)
	deletes := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := handles[w]
			rng := xrand.NewSeeded(uint64(w)*977 + 13)
			for i := 0; i < ops; i++ {
				// Insert-biased so the end state is non-trivial to drain.
				if rng.Intn(5) < 3 {
					h.Insert(rng.Uint64(), uint64(i))
					inserts[w]++
				} else if _, _, ok := h.TryDeleteMin(); ok {
					deletes[w]++
				}
			}
		}(w)
	}
	wg.Wait()

	var inserted, deleted int64
	for w := 0; w < workers; w++ {
		inserted += inserts[w]
		deleted += deletes[w]
	}
	deleted += drainAll(t, q, handles[0])
	if deleted != inserted {
		t.Fatalf("deleted %d of %d inserted", deleted, inserted)
	}

	q.Quiesce()
	rs := q.ReclaimStats()
	t.Logf("inserted=%d releases=%d reuses=%d slabAllocs=%d limboLeaked=%d",
		inserted, rs.ItemPuts, rs.ItemReuses, rs.ItemSlabAllocs, rs.LimboLeaked)
	if rs.ItemsLostLive != 0 {
		t.Fatalf("%d live items hit refcount zero (reachability bug)", rs.ItemsLostLive)
	}
	if rs.LimboLeaked != 0 {
		// The caps are sized so a run this small never starves; a leak here
		// means retires outpaced quiescence unexpectedly.
		t.Fatalf("%d blocks leaked at a limbo cap", rs.LimboLeaked)
	}
	if rs.ItemPuts != inserted {
		t.Fatalf("item releases = %d, want exactly %d", rs.ItemPuts, inserted)
	}
}

// TestReclaimToggleSemantics: WithItemReclamation must change only where
// item memory goes, never observable queue behavior.
func TestReclaimToggleSemantics(t *testing.T) {
	on := NewQueue(Config[int]{K: 64, Mode: Combined, LocalOrdering: true})
	off := NewQueue(Config[int]{K: 64, Mode: Combined, LocalOrdering: true,
		DisableItemReclamation: true})
	hOn, hOff := on.NewHandle(), off.NewHandle()
	rng := xrand.NewSeeded(29)
	for op := 0; op < 20_000; op++ {
		if rng.Bool() {
			k := rng.Uint64n(1 << 30)
			hOn.Insert(k, int(k))
			hOff.Insert(k, int(k))
		} else {
			k1, v1, ok1 := hOn.TryDeleteMin()
			k2, v2, ok2 := hOff.TryDeleteMin()
			if ok1 != ok2 || k1 != k2 || v1 != v2 {
				t.Fatalf("op %d: reclaiming (%d,%d,%v) != non-reclaiming (%d,%d,%v)",
					op, k1, v1, ok1, k2, v2, ok2)
			}
		}
	}
	if on.Size() != off.Size() {
		t.Fatalf("Size %d != %d", on.Size(), off.Size())
	}
	// The non-reclaiming queue must not have recycled a single item.
	rsOff := off.ReclaimStats()
	if rsOff.ItemPuts != 0 || rsOff.ItemsReclaimed != 0 {
		t.Fatalf("reclamation disabled but %d items were recycled", rsOff.ItemPuts)
	}
}

// TestReclaimSurvivesClose: closing a handle drains its items to the shared
// structure and retires its blocks; the remaining handles must still be able
// to delete everything, and the ledger must not double-release. (Item
// references parked in the closing handle's pool may legitimately fall to
// the GC — exactly-once means never-twice here, with the release count
// bounded by the insert count.)
func TestReclaimSurvivesClose(t *testing.T) {
	q := NewQueue(Config[int]{K: 32, Mode: Combined, LocalOrdering: true})
	h1, h2 := q.NewHandle(), q.NewHandle()
	rng := xrand.NewSeeded(41)
	const n = 5_000
	for i := 0; i < n; i++ {
		h1.Insert(rng.Uint64(), i)
		h2.Insert(rng.Uint64(), i)
	}
	h1.Close()
	deleted := drainAll(t, q, h2)
	if deleted != 2*n {
		t.Fatalf("deleted %d of %d", deleted, 2*n)
	}
	q.Quiesce()
	rs := q.ReclaimStats()
	if rs.ItemsLostLive != 0 {
		t.Fatalf("%d live items hit refcount zero", rs.ItemsLostLive)
	}
	if rs.ItemPuts > 2*n {
		t.Fatalf("releases %d exceed inserts %d (double free)", rs.ItemPuts, 2*n)
	}
}

// TestReclaimAccountingFilteredMerges extends the acceptance stress test to
// the §4.5 lazy-deletion path: a Drop filter backed by a concurrently
// mutated cancel-set claims items during merges, deletes, spies and
// explicit Compact passes — and the refcount ledger must still balance
// exactly. Every insert acquires one lineage reference; whether the item
// leaves by TryDeleteMin or by a filter claim inside a merge, it must be
// released exactly once: ItemPuts == inserted, no live item freed, no limbo
// leak. Run under -race in CI (the name keeps it inside the TestReclaim
// quality regex).
func TestReclaimAccountingFilteredMerges(t *testing.T) {
	const (
		workers = 4
		ops     = 20_000
	)
	// The cancel-set the filter consults. Values are globally unique
	// (worker*ops + i), so a set of values identifies items exactly.
	var canceled sync.Map
	drop := func(_ uint64, v uint64) bool {
		_, ok := canceled.Load(v)
		return ok
	}
	q := NewQueue(Config[uint64]{K: 128, Mode: Combined, LocalOrdering: true, Drop: drop})
	handles := make([]*Handle[uint64], workers)
	for i := range handles {
		handles[i] = q.NewHandle()
	}

	var wg sync.WaitGroup
	inserts := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := handles[w]
			rng := xrand.NewSeeded(uint64(w)*1871 + 7)
			// Values this worker inserted and may later cancel.
			var mine []uint64
			for i := 0; i < ops; i++ {
				switch r := rng.Intn(10); {
				case r < 4: // insert
					v := uint64(w*ops + i)
					h.Insert(rng.Uint64(), v)
					mine = append(mine, v)
					inserts[w]++
				case r < 7: // cancel one of our own (popped-already is harmless)
					if len(mine) > 0 {
						j := rng.Intn(len(mine))
						canceled.Store(mine[j], struct{}{})
						mine[j] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					}
				case r < 9: // delete (the drop-aware path claims filtered items)
					h.TryDeleteMin()
				default:
					if i%4096 == 1 {
						// Occasional full purge concurrent with everything
						// else: dist CopyDropIn swaps and shared Purge CAS
						// races are the paths under test.
						h.Compact()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var inserted int64
	for w := 0; w < workers; w++ {
		inserted += inserts[w]
	}

	// Drain to physical emptiness. TryDeleteMin never surfaces filtered
	// items and Size() drifts under merge-time claims, so alternate
	// surface-drains with Compact passes until the physical footprint is
	// gone instead of trusting either signal alone.
	h := handles[0]
	for round := 0; ; round++ {
		misses := 0
		for misses < 3 {
			if _, _, ok := h.TryDeleteMin(); ok {
				misses = 0
			} else {
				misses++
			}
		}
		// Every handle compacts: a handle's Compact purges its own dist
		// (plus the shared structure), and other handles' dists hold
		// taken-by-spy slots and filter-positive items h0 cannot reach.
		for _, hh := range handles {
			hh.Compact()
		}
		if q.FootprintItems() == 0 {
			break
		}
		if round > 100 {
			t.Fatalf("footprint stuck at %d items after %d drain+compact rounds",
				q.FootprintItems(), round)
		}
	}

	q.Quiesce()
	rs := q.ReclaimStats()
	t.Logf("inserted=%d releases=%d reuses=%d limboLeaked=%d",
		inserted, rs.ItemPuts, rs.ItemReuses, rs.LimboLeaked)
	if rs.ItemsLostLive != 0 {
		t.Fatalf("%d live items hit refcount zero (reachability bug)", rs.ItemsLostLive)
	}
	if rs.LimboLeaked != 0 {
		t.Fatalf("%d blocks leaked at a limbo cap", rs.LimboLeaked)
	}
	if rs.ItemPuts != inserted {
		t.Fatalf("item releases = %d, want exactly %d (filtered claims must release exactly once)", rs.ItemPuts, inserted)
	}
}

// TestReclaimSteadyStateFootprint: under a steady load the items §4.4
// recycling owns must stay bounded. Two handles churn ~1e5 live keys in the
// hold model (each delete re-inserts its key plus a random increment), so
// the live count is flat. Releases land in whichever handle's pool proves
// them, not the one that allocated the item; without the queue-wide depot
// one handle's free list grows without bound while the other keeps
// allocating slabs.
//
// The items in use (live plus taken items blocks still reference) are not
// flat: their peak rises whenever the shared structure holds a new largest
// set of deleted-but-unreleased items, so the slab count legitimately
// climbs for several rounds under concurrent churn. The test therefore
// checks the allocation rule that bounds the footprint by that peak: a
// slab is allocated only when the queue parks at most what one other pool
// keeps below its spill mark. One goroutine interleaves the handles, so
// the parked count read between operations is exact and the run is
// deterministic; in it the slab count settles within the first round. It
// also checks the block pools' slot budget and, after a drain and Quiesce,
// the exactly-once ledger.
func TestReclaimSteadyStateFootprint(t *testing.T) {
	const (
		live   = 100_000
		rounds = 3
		ops    = 50_000 // delete attempts per handle per round
		// maxParkedAtAlloc is one pool's spill mark (item.Pool keeps up
		// to two depot batches of 1024 items): a pool allocates only with
		// its own list and the depot dry, so only the other handle's
		// list may hold items then.
		maxParkedAtAlloc = 2 * 1024
		// slabSlack is the slab growth tolerated after the first round,
		// for a later peak of items in use.
		slabSlack = 8
	)
	q := NewQueue(Config[uint64]{K: 256, Mode: Combined, LocalOrdering: true})
	handles := []*Handle[uint64]{q.NewHandle(), q.NewHandle()}
	rng := xrand.NewSeeded(5)
	var inserted int64
	for i := 0; i < live; i++ {
		handles[i%2].Insert(rng.Uint64n(1<<40), uint64(i))
		inserted++
	}

	// slabs and parked read the pools directly: ReclaimStats per operation
	// would dominate the run under the race detector.
	slabs := func() (n int64) {
		for _, h := range handles {
			a, _ := h.items.Stats()
			n += a
		}
		return n
	}
	parked := func() int {
		return handles[0].items.FreeLen() + handles[1].items.FreeLen() + q.depot.Len()
	}
	var rs ReclaimStats
	var firstRound int64
	for r := 0; r < rounds; r++ {
		for i := 0; i < ops; i++ {
			for _, h := range handles {
				slabsBefore, parkedBefore := slabs(), parked()
				if k, v, ok := h.TryDeleteMin(); ok {
					h.Insert(k+rng.Uint64n(1<<40), v)
					inserted++
				}
				if slabs() > slabsBefore && parkedBefore > maxParkedAtAlloc {
					t.Fatalf("round %d: slab %d allocated with %d items parked (at most %d allowed)",
						r, slabs(), parkedBefore, maxParkedAtAlloc)
				}
			}
		}
		rs = q.ReclaimStats()
		t.Logf("round %d: slabs=%d reuses=%d parked items=%d block slots=%d",
			r, rs.ItemSlabAllocs, rs.ItemReuses, rs.ParkedItems, rs.ParkedBlockSlots)
		for i, h := range handles {
			if got := h.PoolStats().ParkedSlots; got > block.ParkedSlotBudget {
				t.Fatalf("round %d: handle %d parks %d block slots, budget %d",
					r, i, got, block.ParkedSlotBudget)
			}
		}
		if r == 0 {
			firstRound = rs.ItemSlabAllocs
		}
	}
	if growth := rs.ItemSlabAllocs - firstRound; growth > slabSlack {
		t.Fatalf("item slabs grew by %d after the first round, want at most %d", growth, slabSlack)
	}

	drainAll(t, q, handles[0])
	q.Quiesce()
	rs = q.ReclaimStats()
	if rs.ItemsLostLive != 0 || rs.LimboLeaked != 0 {
		t.Fatalf("lost live %d, limbo leaked %d", rs.ItemsLostLive, rs.LimboLeaked)
	}
	if rs.ItemPuts != inserted {
		t.Fatalf("item releases = %d, want exactly %d", rs.ItemPuts, inserted)
	}
}

// TestReclaimHandleChurnFeedsDepot: short-lived handles — a goroutine per
// request registering, working and closing — must not allocate fresh item
// slabs forever. A closing handle hands its free items (and its slab's
// uncarved rest) to the queue's depot, and the next handle draws them
// before allocating; without that, every new handle starts from an empty
// pool and every closed one strands its free list. The prefill handle is
// closed, not kept idle: an idle handle's cursor pins the shared k-LSM's
// limbo epoch, so retired shared blocks would pile up to the limbo cap and
// fall to the GC with their items whatever the pools do.
func TestReclaimHandleChurnFeedsDepot(t *testing.T) {
	const (
		live       = 10_000
		iterations = 120
		warmup     = 40
		perHandle  = 2_000
	)
	q := NewQueue(Config[uint64]{K: 64, Mode: Combined, LocalOrdering: true})
	rng := xrand.NewSeeded(9)
	var inserted int64
	prefill := q.NewHandle()
	for i := 0; i < live; i++ {
		prefill.Insert(rng.Uint64n(1<<40), uint64(i))
		inserted++
	}
	prefill.Close()
	var warm int64
	for it := 0; it < iterations; it++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			h := q.NewHandle()
			defer h.Close()
			for i := 0; i < perHandle; i++ {
				h.Insert(rng.Uint64n(1<<40), uint64(i))
				inserted++
			}
			for n := 0; n < perHandle; {
				if _, _, ok := h.TryDeleteMin(); ok {
					n++
				}
			}
		}()
		<-done
		if it == warmup-1 {
			warm = q.ReclaimStats().ItemSlabAllocs
		}
	}
	rs := q.ReclaimStats()
	t.Logf("slabs after warm-up %d, at the end %d; parked items %d", warm, rs.ItemSlabAllocs, rs.ParkedItems)
	if rs.ItemSlabAllocs != warm {
		t.Fatalf("item slabs grew from %d to %d over %d handle lifetimes after warm-up",
			warm, rs.ItemSlabAllocs, iterations-warmup)
	}

	drainAll(t, q, q.NewHandle())
	q.Quiesce()
	rs = q.ReclaimStats()
	if rs.ItemsLostLive != 0 || rs.LimboLeaked != 0 {
		t.Fatalf("lost live %d, limbo leaked %d", rs.ItemsLostLive, rs.LimboLeaked)
	}
	if rs.ItemPuts != inserted {
		t.Fatalf("item releases = %d, want exactly %d", rs.ItemPuts, inserted)
	}
}
