package item

import "sync"

const (
	// slabSize is the number of Items allocated per slab. One slab
	// allocation amortizes over slabSize inserts, taking the steady-state
	// insert path to ~1/slabSize heap allocations per wrapped key.
	slabSize = 256
	// depotBatch is the number of items one depot batch carries: a spill
	// or a draw moves this many items under one lock acquisition.
	depotBatch = 1024
	// spillMark is the local free-list high-water mark. A Put that leaves
	// more than spillMark items free spills one batch to the depot, so a
	// pool parks between depotBatch and spillMark items in steady state.
	spillMark = 2 * depotBatch
)

// Pool is a per-handle allocator and free list for Items (§4.4). It is not
// safe for concurrent use: every handle owns exactly one.
//
// Get prefers recycled items, then the rest of the current slab, then a
// batch drawn from the queue's Depot, allocating a new slab only when all
// three run dry. Put recycles an item under the §4.4 reuse contract: the
// item must be taken AND unreachable from every published block. The
// lineage reference-count scheme (§4.4 proper) supplies that proof: block
// pools with an attached item pool release a lineage's references when its
// blocks and dropped items clear the §4.4 quiescence proofs, and hand the
// item here when the last reference dies on a taken item.
//
// Releases land in whichever handle's pool proves them, not the pool that
// allocated the item, so one handle's free list can grow while another's
// runs dry. Put therefore spills a batch to the Depot past spillMark, and
// the dry pool draws it back before allocating a slab: the items a queue
// owns stay bounded by its peak in-use count (live items plus taken items
// blocks still reference) plus what the pools park.
//
// With item reclamation disabled, taken items are simply left to the
// garbage collector — the Go backstop the paper's C++ implementation
// lacks.
//
// A nil *Pool is valid and falls back to plain allocation, so pooling can be
// disabled by simply not creating pools.
type Pool[V any] struct {
	free  []*Item[V]
	slab  []Item[V]
	depot *Depot[V]

	// allocs counts slab allocations, reuses counts Get calls served from
	// the free list; exposed for tests and diagnostics.
	allocs int64
	reuses int64
	// puts counts items recycled through Put — with reference counting on,
	// exactly one Put happens per taken incarnation, so the accounting tests
	// compare this against the number of successful deletes.
	puts int64
}

// NewPool returns an empty item pool exchanging batches with d. d may be
// nil: the pool then keeps every recycled item to itself.
func NewPool[V any](d *Depot[V]) *Pool[V] { return &Pool[V]{depot: d} }

// Get returns a live item holding key and value, recycling a retired item
// when one is available.
func (p *Pool[V]) Get(key uint64, value V) *Item[V] {
	if p == nil {
		return New(key, value)
	}
	if len(p.free) == 0 && len(p.slab) == 0 {
		p.free = p.depot.tryDraw(p.free)
	}
	if n := len(p.free); n > 0 {
		it := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.reuses++
		it.Reset(key, value)
		return it
	}
	if len(p.slab) == 0 {
		p.slab = make([]Item[V], slabSize)
		p.allocs++
	}
	it := &p.slab[0]
	p.slab = p.slab[1:]
	it.key = key
	it.value = value
	return it
}

// Put recycles an item. Contract: the item is taken and unreachable from
// every published structure (the caller owns the only remaining reference).
// Panics on a live item — that is always a contract violation.
func (p *Pool[V]) Put(it *Item[V]) {
	if p == nil || it == nil {
		return
	}
	if !it.Taken() {
		panic("item: Put of a live item")
	}
	// Drop the payload so recycled items do not pin caller memory while they
	// sit in the free list.
	var zero V
	it.value = zero
	p.puts++
	p.free = append(p.free, it)
	if n := len(p.free); n > spillMark && p.depot.tryPark(p.free[n-depotBatch:]) {
		clear(p.free[n-depotBatch:])
		p.free = p.free[:n-depotBatch]
	}
}

// Spill hands every free item, and the uncarved rest of the current slab,
// to the depot, waiting for its lock. Owners call it when they stop drawing
// from the pool (a closing handle) or never draw at all (the queue reaper),
// so the items stay in circulation instead of stranding with the pool. A
// pool without a depot keeps its items.
func (p *Pool[V]) Spill() {
	if p == nil || p.depot == nil {
		return
	}
	// Uncarved slab items were never handed out; flag them taken so a
	// drawing pool can Reset them like any recycled item. They stay out of
	// the Puts ledger, which counts released incarnations only.
	for i := range p.slab {
		p.slab[i].flag.Store(1)
		p.free = append(p.free, &p.slab[i])
	}
	p.slab = nil
	for len(p.free) > 0 {
		lo := max(len(p.free)-depotBatch, 0)
		p.depot.park(p.free[lo:])
		clear(p.free[lo:])
		p.free = p.free[:lo]
	}
}

// Puts returns the number of items recycled through Put. With reference
// counting on this is the exactly-once release count the accounting tests
// assert against.
func (p *Pool[V]) Puts() int64 {
	if p == nil {
		return 0
	}
	return p.puts
}

// FreeLen returns the current free-list length, for tests.
func (p *Pool[V]) FreeLen() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}

// Stats returns (slab allocations, recycled Gets) for tests and diagnostics.
func (p *Pool[V]) Stats() (allocs, reuses int64) {
	if p == nil {
		return 0, 0
	}
	return p.allocs, p.reuses
}

// Depot is a queue-wide exchange of recycled item batches shared by every
// Pool of one queue (§4.4). Pools spill a batch here when their free list
// passes spillMark and draw one back before allocating a slab, which keeps
// releases that land in one handle's pool from stranding there while
// another handle allocates.
//
// The depot never drops items to the garbage collector. An item lives in a
// slab of slabSize items, and the slab stays allocated while any one of them
// is reachable; recycled items stay reachable for the queue's lifetime, so
// an item handed to the GC frees nothing while its slab mates circulate and
// the next slab allocation only adds to the heap. The depot's size is
// bounded instead by the queue's peak live items plus the items parked in
// pools: a pool only allocates when its free list, its slab and the depot
// are all empty.
//
// The operation paths only TryLock the depot, as the shared k-LSM does its
// limbo list: a contended spill stays local and retries on a later Put, a
// contended draw carves a slab, and no insert or delete ever waits for
// another goroutine. Only Spill, on the close and reaper paths, blocks.
type Depot[V any] struct {
	mu sync.Mutex
	// full holds parked batches; empty holds drained batch shells for the
	// next park to reuse, so circulating batches allocate nothing.
	full  [][]*Item[V]
	empty [][]*Item[V]
	items int
}

// NewDepot returns an empty depot.
func NewDepot[V any]() *Depot[V] { return &Depot[V]{} }

// tryPark parks a copy of batch unless the lock is contended, and reports
// whether it did. Nil-safe: a nil depot parks nothing.
func (d *Depot[V]) tryPark(batch []*Item[V]) bool {
	if d == nil || !d.mu.TryLock() {
		return false
	}
	d.parkLocked(batch)
	d.mu.Unlock()
	return true
}

// park parks a copy of batch (at most depotBatch items), waiting for the
// lock.
func (d *Depot[V]) park(batch []*Item[V]) {
	d.mu.Lock()
	d.parkLocked(batch)
	d.mu.Unlock()
}

func (d *Depot[V]) parkLocked(batch []*Item[V]) {
	var b []*Item[V]
	if n := len(d.empty); n > 0 {
		b = d.empty[n-1]
		d.empty[n-1] = nil
		d.empty = d.empty[:n-1]
	} else {
		b = make([]*Item[V], 0, depotBatch)
	}
	d.full = append(d.full, append(b, batch...))
	d.items += len(batch)
}

// tryDraw appends one parked batch to dst unless the depot is empty or its
// lock contended. Nil-safe.
func (d *Depot[V]) tryDraw(dst []*Item[V]) []*Item[V] {
	if d == nil || !d.mu.TryLock() {
		return dst
	}
	if n := len(d.full); n > 0 {
		b := d.full[n-1]
		d.full[n-1] = nil
		d.full = d.full[:n-1]
		dst = append(dst, b...)
		d.items -= len(b)
		clear(b)
		d.empty = append(d.empty, b[:0])
	}
	d.mu.Unlock()
	return dst
}

// Len returns the number of items parked in the depot, for tests and
// diagnostics. Nil-safe.
func (d *Depot[V]) Len() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.items
}
