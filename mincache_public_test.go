package klsm

import (
	"testing"

	"klsm/internal/binheap"
	"klsm/internal/xrand"
)

// TestMinCachingToggleSemantics: the delete-min fast path (per-block min
// caches, candidate window, deletion buffer, sticky hint) must change only
// the cost profile, never observable behavior. Through a single handle,
// local ordering makes the queue exact, so every TryDeleteMin must return
// the smallest key of an exact model, op for op, with its payload and the
// same success/failure pattern.
func TestMinCachingToggleSemantics(t *testing.T) {
	q := New[int]()
	h := q.NewHandle()
	model := binheap.New(2)
	rng := xrand.NewSeeded(23)
	for op := 0; op < 20_000; op++ {
		if rng.Bool() {
			k := rng.Uint64n(1 << 30)
			h.Insert(k, int(k))
			model.Push(k)
			continue
		}
		want, wantOK := model.Pop()
		k, v, ok := h.TryDeleteMin()
		if ok != wantOK || k != want || (ok && v != int(k)) {
			t.Fatalf("op %d: TryDeleteMin (%d,%d,%v), exact model (%d,%v)",
				op, k, v, ok, want, wantOK)
		}
	}
	if q.Size() != model.Len() {
		t.Fatalf("Size %d != model %d", q.Size(), model.Len())
	}
	// Drain to empty: the tail of the sequence must agree too.
	for {
		want, wantOK := model.Pop()
		k, _, ok := h.TryDeleteMin()
		if ok != wantOK {
			t.Fatalf("drain: ok=%v, model ok=%v", ok, wantOK)
		}
		if !ok {
			return
		}
		if k != want {
			t.Fatalf("drain: key %d != model key %d", k, want)
		}
	}
}
