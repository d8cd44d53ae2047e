package item

import "testing"

func TestRefUnrefCounts(t *testing.T) {
	it := New(7, "x")
	if it.Refs() != 0 {
		t.Fatalf("fresh item has %d refs", it.Refs())
	}
	it.Ref()
	it.Ref()
	if it.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", it.Refs())
	}
	if it.Unref() {
		t.Fatal("first Unref of two reported zero")
	}
	if !it.Unref() {
		t.Fatal("final Unref did not report zero")
	}
}

func TestUnrefUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unref below zero did not panic")
		}
	}()
	New(1, 0).Unref()
}

func TestRefsSurviveTakeAndReset(t *testing.T) {
	// The refcount is orthogonal to the versioned flag: takes and resets
	// must not disturb it.
	it := New(3, 9)
	it.Ref()
	if !it.TryTake() {
		t.Fatal("take failed")
	}
	if it.Refs() != 1 {
		t.Fatalf("refs = %d after take", it.Refs())
	}
	if !it.Unref() {
		t.Fatal("unref did not hit zero")
	}
	it.Reset(4, 10)
	if it.Refs() != 0 {
		t.Fatalf("refs = %d after reset, want 0", it.Refs())
	}
}

func TestSpillFeedsDepot(t *testing.T) {
	d := NewDepot[int]()
	p := NewPool[int](d)
	items := make([]*Item[int], 8)
	for i := range items {
		items[i] = p.Get(uint64(i), i)
	}
	for _, it := range items {
		it.TryTake()
		p.Put(it)
	}
	p.Spill()
	// The 8 released items plus the 248 never-carved slab mates.
	if p.FreeLen() != 0 || d.Len() != slabSize {
		t.Fatalf("after spill: free = %d, depot = %d, want 0 and %d", p.FreeLen(), d.Len(), slabSize)
	}
	if p.Puts() != 8 {
		t.Fatalf("spill disturbed the Puts ledger: %d", p.Puts())
	}
	// A second pool draws the spilled items before allocating a slab.
	q := NewPool[int](d)
	for i := 0; i < slabSize; i++ {
		if it := q.Get(uint64(i), i); it.Taken() || it.Key() != uint64(i) {
			t.Fatalf("drawn item %d not reset", i)
		}
	}
	if allocs, reuses := q.Stats(); allocs != 0 || reuses != slabSize {
		t.Fatalf("drawing pool: %d slabs, %d reuses, want 0 and %d", allocs, reuses, slabSize)
	}
	var np *Pool[int]
	np.Spill()                // nil-safe
	NewPool[int](nil).Spill() // no depot: keeps its items
}

// TestPutSpillsPastMark: a pool that only absorbs releases parks at most
// spillMark items itself and hands the rest to the depot in whole batches;
// a dry pool draws them back instead of allocating slabs.
func TestPutSpillsPastMark(t *testing.T) {
	d := NewDepot[int]()
	src, sink := NewPool[int](nil), NewPool[int](d)
	const n = 5 * depotBatch
	for i := 0; i < n; i++ {
		it := src.Get(uint64(i), i)
		it.TryTake()
		sink.Put(it)
		if sink.FreeLen() > spillMark {
			t.Fatalf("sink parks %d items, above the mark %d", sink.FreeLen(), spillMark)
		}
	}
	if got := sink.FreeLen() + d.Len(); got != n {
		t.Fatalf("sink %d + depot %d = %d items, want %d", sink.FreeLen(), d.Len(), got, n)
	}
	if d.Len()%depotBatch != 0 || d.Len() == 0 {
		t.Fatalf("depot holds %d items, want whole batches of %d", d.Len(), depotBatch)
	}
	dry := NewPool[int](d)
	for i, parked := 0, d.Len(); i < parked; i++ {
		dry.Get(uint64(i), i).TryTake()
	}
	if allocs, _ := dry.Stats(); allocs != 0 || d.Len() != 0 {
		t.Fatalf("dry pool allocated %d slabs, depot left %d", allocs, d.Len())
	}
}

func TestPoolPutsCounter(t *testing.T) {
	p := NewPool[int](nil)
	it := p.Get(5, 50)
	it.TryTake()
	p.Put(it)
	if p.Puts() != 1 || p.FreeLen() != 1 {
		t.Fatalf("puts=%d freeLen=%d, want 1/1", p.Puts(), p.FreeLen())
	}
	// A nil pool stays a no-op.
	var np *Pool[int]
	if np.Puts() != 0 || np.FreeLen() != 0 {
		t.Fatal("nil pool reports nonzero counters")
	}
}

// TestDepotConcurrentExchange: one goroutine only allocates, another only
// releases, the worst imbalance for per-handle free lists. Through the
// depot the allocator keeps reusing what the releaser spills, so its slab
// count stays a small fraction of the items it handed out. Run under -race
// it also checks the depot's synchronization.
func TestDepotConcurrentExchange(t *testing.T) {
	d := NewDepot[int]()
	alloc, sink := NewPool[int](d), NewPool[int](d)
	const n = 200 * depotBatch
	// The channel holds one batch in flight so the releaser runs behind.
	ch := make(chan *Item[int], depotBatch)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for it := range ch {
			sink.Put(it)
		}
	}()
	for i := 0; i < n; i++ {
		it := alloc.Get(uint64(i), i)
		if !it.TryTake() {
			t.Fatalf("item %d handed out taken", i)
		}
		ch <- it
	}
	close(ch)
	<-done
	slabs, reuses := alloc.Stats()
	if slabs*slabSize > n/4 {
		t.Fatalf("allocator carved %d slabs (%d reuses) for %d items", slabs, reuses, n)
	}
	// Every carved item is parked somewhere: nothing was dropped.
	parked := sink.FreeLen() + d.Len() + alloc.FreeLen()
	if carved := int(slabs)*slabSize - len(alloc.slab); parked != carved {
		t.Fatalf("%d items parked of %d carved", parked, carved)
	}
}
