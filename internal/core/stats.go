package core

// QueueStats aggregates structural counters across all handles, exposing
// the data the ablation experiments (DESIGN.md E6–E8) are built on. The
// snapshot is taken without stopping the queue, so counters from handles
// that are mid-operation may be one event behind.
type QueueStats struct {
	// Handles is the number of registered handles (T in ρ = T·k).
	Handles int
	// Inserted and Deleted are the lifetime operation totals.
	Inserted int64
	Deleted  int64
	// Merges counts block merges across all DistLSMs.
	Merges int64
	// Overflows counts blocks transferred from DistLSMs to the shared
	// k-LSM (the batching frequency of §4.3).
	Overflows int64
	// Spies counts successful spy operations; SpiedBlocks the blocks
	// copied by them (§4.2).
	Spies       int64
	SpiedBlocks int64
	// SpyCalls counts delete-min rounds that resorted to spying.
	SpyCalls int64
	// Consolidates counts DistLSM consolidation passes.
	Consolidates int64
	// SharedConsolidatePushes counts successfully published consolidations
	// of the shared k-LSM; SharedInsertRetries counts failed insert CAS
	// attempts (the contention measure of §4.1's bottleneck discussion).
	SharedConsolidatePushes int64
	SharedInsertRetries     int64
	// WindowBuilds counts full candidate-window materializations,
	// WindowRepairs incremental ones, and WindowItems the total candidate
	// entries materialized by either — the per-delete window cost the
	// incremental window bounds (the E14/E15 metric).
	WindowBuilds  int64
	WindowRepairs int64
	WindowItems   int64
	// BufferFills/BufferPops/BufferFlushes count deletion-buffer refills,
	// deletes served from the buffer, and invalidation flushes that
	// discarded unconsumed entries.
	BufferFills   int64
	BufferPops    int64
	BufferFlushes int64
	// HintSkips counts shared-side queries skipped on a valid skip-shared
	// hint; HintSticks the sticky subset granted by minimum-key
	// re-validation across a shared publication (MultiQueue-style
	// stickiness).
	HintSkips  int64
	HintSticks int64
}

// ReclaimStats aggregates the §4.4 item-reclamation counters across all
// open handles. Unlike Stats, the underlying counters are owner-written
// plain fields, so ReclaimStats must only be called while no handle is
// operating (the Quiesce contract); it exists for the accounting tests and
// shutdown diagnostics.
type ReclaimStats struct {
	// ItemsReclaimed counts taken items reclaimed by slab zero crossings
	// and quiesce sweeps; ItemPuts is the same event counted at the item
	// pools. The two agree for the combined queue (every pool put is a
	// reclaim).
	ItemsReclaimed int64
	ItemPuts       int64
	// ItemReuses counts inserts served from recycled items; ItemSlabAllocs
	// counts fresh item slab allocations.
	ItemReuses     int64
	ItemSlabAllocs int64
	// ItemsLostLive counts final releases that found the item still live —
	// always zero unless reachability is broken somewhere (asserted by the
	// accounting tests).
	ItemsLostLive int64
	// LimboLeaked counts blocks dropped at a limbo cap with their item
	// references unreleased (per-handle pools plus the shared structure) —
	// the one GC fallback left with reclamation on.
	LimboLeaked int64
	// ParkedItems and ParkedBlockSlots are gauges, not lifetime totals:
	// the recycled items waiting for reuse right now (the open handles'
	// and the reaper's item free lists plus the queue's depot), and the
	// block slots the open handles' and the reaper's block free lists park
	// (each pool at most block.ParkedSlotBudget). Together they are the
	// memory §4.4 recycling holds beyond the live structure.
	ParkedItems      int64
	ParkedBlockSlots int64
}

// ReclaimStats returns the aggregated reclamation counters, including
// those of closed handles (accumulated at close) and the queue's reaper.
// Callers must guarantee no handle is concurrently operating; see the type
// comment.
func (q *Queue[V]) ReclaimStats() ReclaimStats {
	var rs ReclaimStats
	for _, h := range q.handlesSnapshot() {
		ps := h.pool.Stats()
		rs.ItemsReclaimed += ps.ItemsReclaimed
		rs.ItemsLostLive += ps.ItemsLostLive
		rs.LimboLeaked += ps.LimboLeaked
		rs.ItemPuts += h.items.Puts()
		a, r := h.items.Stats()
		rs.ItemSlabAllocs += a
		rs.ItemReuses += r
		rs.ParkedItems += int64(h.items.FreeLen())
		rs.ParkedBlockSlots += ps.ParkedSlots
	}
	q.reaperMu.Lock()
	cr := q.closedReclaim
	if q.reaperPool != nil {
		ps := q.reaperPool.Stats()
		cr.ItemsReclaimed += ps.ItemsReclaimed
		cr.ItemsLostLive += ps.ItemsLostLive
		cr.LimboLeaked += ps.LimboLeaked
		cr.ItemPuts += q.reaperItems.Puts()
		rs.ParkedItems += int64(q.reaperItems.FreeLen())
		rs.ParkedBlockSlots += ps.ParkedSlots
	}
	q.reaperMu.Unlock()
	rs.ParkedItems += int64(q.depot.Len())
	rs.ItemsReclaimed += cr.ItemsReclaimed
	rs.ItemPuts += cr.ItemPuts
	rs.ItemReuses += cr.ItemReuses
	rs.ItemSlabAllocs += cr.ItemSlabAllocs
	rs.ItemsLostLive += cr.ItemsLostLive
	rs.LimboLeaked += cr.LimboLeaked
	rs.LimboLeaked += q.shared.LimboLeaked()
	return rs
}

// Stats returns an aggregated snapshot of the queue's structural counters.
// Every counter is a lifetime total: closed handles' counters are folded
// into the queue at Close, so no counter decreases across handle churn.
func (q *Queue[V]) Stats() QueueStats {
	q.mu.Lock()
	hs := append([]*Handle[V](nil), q.handles...)
	s := q.closed
	q.mu.Unlock()
	s.Handles = len(hs)
	for _, h := range hs {
		h.addStats(&s)
	}
	return s
}

// addStats adds h's counters to s (every field but Handles).
func (h *Handle[V]) addStats(s *QueueStats) {
	s.Inserted += h.inserted.Load()
	s.Deleted += h.deleted.Load()
	ds := h.dist.Stats()
	s.Merges += ds.Merges
	s.Overflows += ds.Overflows
	s.Spies += ds.Spies
	s.SpiedBlocks += ds.SpiedBlocks
	s.Consolidates += ds.Consolidates
	s.SpyCalls += h.SpyCalls.Load()
	s.SharedConsolidatePushes += h.cursor.ConsolidatePushes.Load()
	s.SharedInsertRetries += h.cursor.InsertRetries.Load()
	s.WindowBuilds += h.cursor.WindowBuilds.Load()
	s.WindowRepairs += h.cursor.WindowRepairs.Load()
	s.WindowItems += h.cursor.WindowItems.Load()
	s.BufferFills += h.BufFills.Load()
	s.BufferPops += h.BufPops.Load()
	s.BufferFlushes += h.BufFlushes.Load()
	s.HintSkips += h.cursor.HintSkips.Load()
	s.HintSticks += h.cursor.HintSticks.Load()
}
