package klsm

// Stats is a snapshot of the queue's structural counters, aggregated across
// every handle the queue has had. It exposes the internals the delete-min fast path is
// tuned by — candidate-window maintenance cost, deletion-buffer hit rates,
// skip-shared stickiness — alongside the structural event counts of the
// paper's ablations. The snapshot is taken without stopping the queue, so
// counters from handles mid-operation may be one event behind. Counters of
// closed handles are folded in when they close, so every counter except
// Handles is a lifetime total that never decreases.
type Stats struct {
	// Handles is the number of registered handles (T in ρ = T·k).
	Handles int
	// Inserted and Deleted are the lifetime operation totals.
	Inserted int64
	// Deleted counts successful delete-min operations.
	Deleted int64
	// Merges counts block merges across the per-handle structures.
	Merges int64
	// Overflows counts blocks transferred from per-handle structures to the
	// shared k-LSM (the batching frequency of paper §4.3).
	Overflows int64
	// Spies counts successful spy operations and SpiedBlocks the blocks
	// they copied (paper §4.2).
	Spies int64
	// SpiedBlocks counts blocks copied by spy operations.
	SpiedBlocks int64
	// SpyCalls counts delete-min rounds that resorted to spying.
	SpyCalls int64
	// Consolidates counts per-handle consolidation passes.
	Consolidates int64
	// SharedConsolidatePushes counts successfully published consolidations
	// of the shared k-LSM.
	SharedConsolidatePushes int64
	// SharedInsertRetries counts failed shared-insert CAS attempts (the
	// contention measure of paper §4.1).
	SharedInsertRetries int64
	// WindowBuilds counts full candidate-window materializations and
	// WindowRepairs incremental ones; WindowItems is the total number of
	// candidate entries materialized by either. WindowItems/Deleted is the
	// per-delete window cost the incremental window keeps bounded at
	// large k.
	WindowBuilds int64
	// WindowRepairs counts incremental candidate-window repairs.
	WindowRepairs int64
	// WindowItems counts candidate entries materialized into windows.
	WindowItems int64
	// BufferFills counts deletion-buffer refills, BufferPops deletes served
	// straight from the buffer, and BufferFlushes invalidations that
	// discarded unconsumed buffered candidates.
	BufferFills int64
	// BufferPops counts deletes served from the deletion buffer.
	BufferPops int64
	// BufferFlushes counts deletion-buffer invalidation flushes.
	BufferFlushes int64
	// HintSkips counts shared-side queries skipped on a valid skip-shared
	// hint; HintSticks is the sticky subset, granted by minimum-key
	// re-validation across a shared publication.
	HintSkips int64
	// HintSticks counts sticky cross-publication hint re-validations.
	HintSticks int64
}

// Stats returns an aggregated snapshot of the queue's structural counters;
// see Stats for the fields. Safe to call concurrently with operations.
func (q *Queue[V]) Stats() Stats {
	s := q.q.Stats()
	return Stats{
		Handles:                 s.Handles,
		Inserted:                s.Inserted,
		Deleted:                 s.Deleted,
		Merges:                  s.Merges,
		Overflows:               s.Overflows,
		Spies:                   s.Spies,
		SpiedBlocks:             s.SpiedBlocks,
		SpyCalls:                s.SpyCalls,
		Consolidates:            s.Consolidates,
		SharedConsolidatePushes: s.SharedConsolidatePushes,
		SharedInsertRetries:     s.SharedInsertRetries,
		WindowBuilds:            s.WindowBuilds,
		WindowRepairs:           s.WindowRepairs,
		WindowItems:             s.WindowItems,
		BufferFills:             s.BufferFills,
		BufferPops:              s.BufferPops,
		BufferFlushes:           s.BufferFlushes,
		HintSkips:               s.HintSkips,
		HintSticks:              s.HintSticks,
	}
}
