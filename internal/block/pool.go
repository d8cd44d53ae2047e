// Block and item recycling (paper §4.4).
//
// The C++ k-LSM's performance depends on never allocating in the hot paths:
// blocks and items are recycled through free lists, with versioned flags
// defeating ABA. Go's garbage collector changes the trade-off — safety never
// requires recycling — but the allocation rate still does: every insert
// creates a level-0 block and every merge a 2^level pointer slice, and that
// garbage dominates the operation cost. This file implements the Go
// translation of §4.4:
//
//   - Pool is a per-handle, level-indexed free list of blocks. It is owned
//     by exactly one goroutine (like the paper's thread-local free lists)
//     and never locked.
//   - Private blocks — created by the owner and not yet published — are
//     recycled immediately via Put the moment they are merged away.
//   - Published blocks — reachable through a DistLSM slot until the owner
//     unlinks them — go through Retire, which parks them in a limbo list
//     until the Guard proves no spy that might still hold the pointer is
//     active. This is the "reuse contract": a retired block re-enters the
//     free list only once it is unreachable from every published structure.
//   - Anything the contract cannot prove reusable is simply dropped and the
//     garbage collector reclaims it — the backstop the C++ version lacks.
//
// Item reclamation (§4.4 proper, lineage-batched): a pool with an item pool
// attached (SetItemPool) additionally maintains per-item reference counts
// at block-lineage granularity. Blocks it hands out are flagged so that
// AcquireRefs — called once when a lineage begins (insert's level-0 block,
// spy copies, entry into the shared k-LSM) — takes one reference per
// occupied slot, and the owner-local transfer merges move those references
// to each generation's successor instead of re-acquiring them. Items a
// transfer merge filters out land in the successor's drops list and are
// handed to RetireItems, the item-level limbo: they release under the same
// guard quiescence that gates block reuse. Every reffed, undonated block
// this pool recycles or drops releases its references first — releasing
// happens exactly where the reuse contract already proves the block
// unreachable, so the proofs carry over to the items. A release that drops
// an item's last reference returns the (taken) item to the attached item
// pool; blocks that overflow the free-list caps or the level bound still
// release their items before the garbage collector takes the block shell,
// so deterministic item reuse survives every drop decision except a limbo
// overflow (counted in LimboLeaked).
package block

import (
	"sync/atomic"

	"klsm/internal/item"
)

// Guard counts concurrently active readers of published blocks (spies and
// melds). Owners consult it before recycling a retired published block: if
// no reader is active at or after the moment the block became unreachable,
// no reader can still hold a pointer to it.
//
// The quiescence argument: readers obtain block pointers only through
// atomic slots (DistLSM block slots guarded by the size counter). An owner
// first unlinks a block (stores the replacement and the new size), then
// observes active == 0. Under Go's sequentially consistent atomics, any
// reader that enters afterwards loads the post-unlink state and cannot see
// the old pointer; any reader that entered before is counted, so the
// observation fails and the block stays in limbo.
//
// A nil *Guard is always quiescent — correct for single-threaded users (a
// lone DistLSM in tests and benchmarks), where Retire degenerates to an
// immediate Put.
type Guard struct {
	active atomic.Int64
}

// Enter marks a reader active. Pair with Exit.
func (g *Guard) Enter() {
	if g != nil {
		g.active.Add(1)
	}
}

// Exit marks the reader inactive.
func (g *Guard) Exit() {
	if g != nil {
		g.active.Add(-1)
	}
}

// Quiescent reports whether no reader is currently active.
func (g *Guard) Quiescent() bool {
	return g == nil || g.active.Load() == 0
}

const (
	// freeCapLevel0 and freeCap bound the free list per level; level 0 is
	// the per-insert allocation and much hotter than the rest.
	freeCapLevel0 = 64
	freeCap       = 4
	// maxPoolLevel bounds which blocks are pooled at all: clearing a
	// retired block's slot array is O(capacity), which stops amortizing
	// against the merge that filled it somewhere around a few MB.
	maxPoolLevel = 20
	// limboCap bounds the not-yet-quiescent retired list; overflow is
	// dropped to the garbage collector. With item reclamation on, a dropped
	// limbo block would leak its item references (the items fall back to
	// the GC), so reclaiming pools use the larger bound before giving up.
	limboCap        = 64
	limboCapReclaim = 512
	// itemLimboCap bounds the dropped-item limbo (RetireItems); overflow
	// leaks the items' references to the GC, counted in LimboLeaked.
	itemLimboCap = 1 << 15
)

// PoolStats is a snapshot of pool counters for tests and diagnostics.
type PoolStats struct {
	Gets    int64 // total Get calls
	Hits    int64 // Gets served from the free list
	Puts    int64 // blocks recycled (immediately or via limbo)
	Retired int64 // Retire calls
	Dropped int64 // blocks abandoned to the GC (caps or level bound)

	// Item-reclamation counters (§4.4 proper); zero without SetItemPool.
	ItemsReclaimed int64 // taken items returned to the item pool by a final Unref
	ItemsLostLive  int64 // final Unref on a live item (indicates a bug; see releaseItemRef)
	LimboLeaked    int64 // blocks or item obligations dropped at a limbo cap, unreleased
}

// Pool is a per-handle, level-indexed block free list (§4.4). Not safe for
// concurrent use: all methods are owner-only. A nil *Pool is valid and makes
// Get allocate, Put and Retire no-ops — the pooling-disabled mode.
type Pool[V any] struct {
	guard *Guard
	// items, when set, turns on §4.4 item reclamation: blocks from this
	// pool refcount their slots and release them here on recycle or drop.
	items *item.Pool[V]
	free  [maxPoolLevel + 1][]*Block[V]
	limbo []*Block[V]
	// limboItems parks dropped-item references (transfer-merge drops)
	// until the guard proves their donor blocks unreadable.
	limboItems []*item.Item[V]
	stats      PoolStats
}

// NewPool returns an empty pool whose Retire path is guarded by g. g may be
// nil for single-threaded use (Retire recycles immediately).
func NewPool[V any](g *Guard) *Pool[V] {
	return &Pool[V]{guard: g}
}

// SetItemPool attaches the owning handle's item pool and enables item
// reclamation: blocks handed out afterwards refcount their slots, and
// releases flow into ip. Must be set before the pool is used and must be
// configured identically on every pool of one queue (a mix of refcounted
// and plain blocks would release items other blocks still reference).
func (p *Pool[V]) SetItemPool(ip *item.Pool[V]) {
	if p != nil {
		p.items = ip
	}
}

// Reclaiming reports whether item reclamation is enabled on this pool.
func (p *Pool[V]) Reclaiming() bool { return p != nil && p.items != nil }

// Get returns an empty private block of the given level, recycled when
// possible.
func (p *Pool[V]) Get(level int) *Block[V] {
	if p == nil {
		return New[V](level)
	}
	p.stats.Gets++
	p.reapLimbo()
	reclaim := p.items != nil
	if level <= maxPoolLevel {
		if fl := p.free[level]; len(fl) > 0 {
			b := fl[len(fl)-1]
			fl[len(fl)-1] = nil
			p.free[level] = fl[:len(fl)-1]
			p.stats.Hits++
			b.refItems = reclaim
			return b
		}
	}
	b := New[V](level)
	b.refItems = reclaim
	return b
}

// releaseItemRef releases one lineage reference on it and reclaims the item
// if that was the last one (§4.4 proper). The caller supplies the proof
// that no reader can still acquire the item through the structure the
// reference guarded (guard quiescence, epoch quiescence, or privacy).
func (p *Pool[V]) releaseItemRef(it *item.Item[V]) {
	if !it.Unref() {
		return
	}
	if it.Taken() {
		// Last reference on a taken item: this pool's handle owns it
		// exclusively now — recycle (§4.4 proper).
		p.items.Put(it)
		p.stats.ItemsReclaimed++
	} else {
		// A live item at refcount zero is unreachable yet undeleted — a
		// reachability bug upstream. It falls to the GC; the counter lets
		// tests assert this never happens.
		p.stats.ItemsLostLive++
	}
}

// releaseItems releases the references b owns — one per slot in [0, refHi),
// the occupied range when the references were acquired or transferred
// (filled may have shrunk since; the trimmed slots keep their pointers and
// their references), plus any still-attached drops. Donated blocks release
// nothing: their references moved to a successor. The bookkeeping is
// cleared first, so a block can never double-release.
func (p *Pool[V]) releaseItems(b *Block[V]) {
	if b.donated {
		b.resetReclaim()
		return
	}
	hi := b.refHi
	drops := b.drops
	b.reffed = false
	b.refHi = 0
	b.drops = nil
	for _, it := range b.items[:hi] {
		p.releaseItemRef(it)
	}
	for i, it := range drops {
		drops[i] = nil
		p.releaseItemRef(it)
	}
	b.drops = drops[:0]
	b.donated = false
}

// Put recycles a block immediately. Contract: b is private — it was never
// published, or this call site can otherwise prove no other goroutine can
// reach it (single-threaded structures, quiescent limbo drains). The
// block's item references are released first (reclaiming taken items whose
// last reference died), even when the caps below make the block itself fall
// to the garbage collector.
func (p *Pool[V]) Put(b *Block[V]) {
	if p == nil || b == nil {
		return
	}
	if b.reffed {
		p.releaseItems(b)
	} else if len(b.drops) != 0 {
		// An unreffed block never owns drop obligations; reaching here
		// means a transfer path lost track of references.
		panic("block: Put discards pending drop references")
	}
	level := b.level
	if level > maxPoolLevel || len(p.free[level]) >= p.freeCap(level) {
		p.stats.Dropped++
		return
	}
	clear(b.items)
	b.filled.Store(0)
	b.filter = 0
	p.stats.Puts++
	p.free[level] = append(p.free[level], b)
}

// Retire recycles a block that was published and has now been unlinked by
// the owner (stores making it unreachable for new readers must precede this
// call). If the guard is quiescent the block is recycled immediately —
// together with any blocks parked earlier — otherwise it joins the limbo
// list until a later quiescent observation. Reclaiming pools use a larger
// limbo bound: a block dropped here would leak its item references to the
// GC (counted in LimboLeaked), the one nondeterministic escape left in the
// reclamation scheme.
func (p *Pool[V]) Retire(b *Block[V]) {
	if p == nil || b == nil {
		return
	}
	p.stats.Retired++
	if p.guard.Quiescent() {
		p.drainLimbo()
		p.Put(b)
		return
	}
	cap := limboCap
	if p.items != nil {
		cap = limboCapReclaim
	}
	if len(p.limbo) >= cap {
		p.stats.Dropped++
		if p.items != nil {
			p.stats.LimboLeaked++
		}
		return
	}
	p.limbo = append(p.limbo, b)
}

// RetireItems parks dropped-item references (a transfer merge's drops,
// detached by the owner) until guard quiescence proves no reader can still
// reach the items through their donors' blocks. The same contract as
// Retire: every store unlinking the donors must precede this call. The
// slice contents are consumed; the slice itself stays with the caller.
func (p *Pool[V]) RetireItems(items []*item.Item[V]) {
	if p == nil || len(items) == 0 || p.items == nil {
		return
	}
	if p.guard.Quiescent() {
		p.drainLimbo()
		for _, it := range items {
			p.releaseItemRef(it)
		}
		return
	}
	for i, it := range items {
		if len(p.limboItems) >= itemLimboCap {
			p.stats.LimboLeaked += int64(len(items) - i)
			return
		}
		p.limboItems = append(p.limboItems, it)
	}
}

// RetireBlockDrops detaches b's accumulated drops and parks them via
// RetireItems. Owners call it right after the publication/unlink stores of
// the operation that created b, so drops never travel across structure
// boundaries or pile up on long-lived blocks.
func (p *Pool[V]) RetireBlockDrops(b *Block[V]) {
	if p == nil || b == nil || len(b.drops) == 0 {
		return
	}
	p.RetireItems(b.drops)
	b.clearDrops()
}

// Adopt parks obligations handed over from a closing pool (DetachLimbo on
// the other side). Unlike Retire and RetireItems it applies no cap:
// dropping an adopted obligation would leak its references for good, and
// the volume per close is already bounded by the closing pool's own caps.
// Owner-only, like every other method.
func (p *Pool[V]) Adopt(blocks []*Block[V], items []*item.Item[V]) {
	if p == nil {
		return
	}
	p.stats.Retired += int64(len(blocks))
	if p.guard.Quiescent() {
		p.drainLimbo()
		for _, b := range blocks {
			p.Put(b)
		}
		for _, it := range items {
			p.releaseItemRef(it)
		}
		return
	}
	p.limbo = append(p.limbo, blocks...)
	p.limboItems = append(p.limboItems, items...)
}

// DrainLimbo recycles every parked block and dropped-item reference if the
// guard is quiescent and reports whether the limbo lists are empty
// afterwards. Owner-only, like every other method; used by shutdown/test
// quiesce paths that need the parked item references released
// deterministically.
func (p *Pool[V]) DrainLimbo() bool {
	if p == nil {
		return true
	}
	p.reapLimbo()
	return len(p.limbo) == 0 && len(p.limboItems) == 0
}

// DetachLimbo withdraws and returns the not-yet-quiescent retired blocks
// and dropped-item references, for handing a closing handle's release
// obligations to a surviving pool (the §4.4 limbo handoff). Obligations
// already provably releasable are released in place first; the pool must
// not Retire afterwards.
func (p *Pool[V]) DetachLimbo() ([]*Block[V], []*item.Item[V]) {
	if p == nil {
		return nil, nil
	}
	p.reapLimbo()
	blocks, items := p.limbo, p.limboItems
	p.limbo = nil
	p.limboItems = nil
	return blocks, items
}

// TrimFree drops every free-listed block shell to the garbage collector.
// Pools that only ever absorb obligations and never serve Get (the queue
// reaper) call it after drains so adopted shells — up to multi-MiB slot
// arrays — do not stay pinned for the pool's lifetime.
func (p *Pool[V]) TrimFree() {
	if p == nil {
		return
	}
	for level := range p.free {
		clear(p.free[level])
		p.free[level] = p.free[level][:0]
	}
}

// reapLimbo opportunistically recycles parked blocks once quiescence is
// observed.
func (p *Pool[V]) reapLimbo() {
	if (len(p.limbo) > 0 || len(p.limboItems) > 0) && p.guard.Quiescent() {
		p.drainLimbo()
	}
}

// drainLimbo moves every parked block to the free lists and releases every
// parked item reference. Caller has observed quiescence.
func (p *Pool[V]) drainLimbo() {
	for i, b := range p.limbo {
		p.limbo[i] = nil
		p.Put(b)
	}
	p.limbo = p.limbo[:0]
	for i, it := range p.limboItems {
		p.limboItems[i] = nil
		p.releaseItemRef(it)
	}
	p.limboItems = p.limboItems[:0]
}

// freeCap returns the free-list bound for a level.
func (p *Pool[V]) freeCap(level int) int {
	if level == 0 {
		return freeCapLevel0
	}
	return freeCap
}

// Guard returns the guard retire operations are gated on (nil for a nil or
// unguarded pool). Readers of published blocks bracket themselves with it.
func (p *Pool[V]) Guard() *Guard {
	if p == nil {
		return nil
	}
	return p.guard
}

// Stats returns a snapshot of the pool counters (owner-only, like every
// other method).
func (p *Pool[V]) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return p.stats
}
