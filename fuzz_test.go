package klsm

import (
	"container/heap"
	"slices"
	"testing"

	"klsm/internal/binheap"
)

// fuzzHeap is the exact-PQ oracle for fuzzing.
type fuzzHeap []uint64

func (h fuzzHeap) Len() int            { return len(h) }
func (h fuzzHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h fuzzHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *fuzzHeap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *fuzzHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// FuzzSingleHandleExact drives a single-handle queue with byte-decoded
// operations and cross-checks every result against an exact heap: with one
// handle and local ordering, every configuration must behave exactly. An
// even byte inserts; an odd byte selects one of the delete-min surfaces
// (TryDeleteMin, TryDeleteMinBounded, DrainMin, DrainMinBounded, PeekMin),
// with a bound decoded from the byte's high nibble: keys inserted at least
// that many operations ago are due, and 15 is the top of the key space.
// Run with `go test -fuzz FuzzSingleHandleExact` for coverage-guided
// exploration; the seed corpus runs in ordinary `go test` invocations.
func FuzzSingleHandleExact(f *testing.F) {
	f.Add([]byte{0x00, 0x13, 0x07, 0x01, 0xff, 0x20})
	f.Add([]byte("insert-delete-insert"))
	f.Add([]byte{0x02, 0x04, 0x06, 0x01, 0x03, 0x05, 0x01, 0x01, 0x01})
	// Six inserts, then bounded pops that hit, a bounded pop and a bounded
	// drain below the minimum, a drain cut short by its bound, a peek, a
	// drain at the top of the key space and every surface on the empty
	// queue; at k = 0 and k = 256.
	bounded := []byte{0x00, 0x02, 0x04, 0x06, 0x08, 0x0a, 0x35, 0x3f, 0xd5, 0xd9, 0x75, 0x3b,
		0x0c, 0x93, 0xf7, 0x03, 0x01, 0x05, 0x09, 0x10, 0x12, 0x05, 0xff}
	f.Add(bounded)
	f.Add(append([]byte{0x02}, bounded[1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		ks := []int{0, 4, 256}
		k := 0
		if len(data) > 0 {
			k = ks[int(data[0])%len(ks)]
		}
		q := New[struct{}](WithRelaxation(k))
		h := q.NewHandle()
		ref := &fuzzHeap{}
		var dst []KV[uint64, struct{}]
		// due pops the model's ascending prefix of at most n keys <= bound.
		due := func(n int, bound uint64) []uint64 {
			var want []uint64
			for len(want) < n && ref.Len() > 0 && (*ref)[0] <= bound {
				want = append(want, heap.Pop(ref).(uint64))
			}
			return want
		}
		for i, b := range data {
			if b&1 == 0 {
				key := uint64(b>>1) + uint64(i)<<7
				h.Insert(key, struct{}{})
				heap.Push(ref, key)
				if q.Size() != ref.Len() {
					t.Fatalf("op %d: Size %d, oracle %d", i, q.Size(), ref.Len())
				}
				continue
			}
			bound := ^uint64(0)
			if d := int(b >> 4); d < 15 {
				bound = uint64(max(i-d, 0)) << 7
			}
			n := 1 + int(b>>5)
			var got, want []uint64
			switch op := (b >> 1) % 5; op {
			case 0, 1:
				key, ok := uint64(0), false
				if op == 0 {
					bound = ^uint64(0)
					key, _, ok = h.TryDeleteMin()
				} else {
					key, _, ok = h.TryDeleteMinBounded(bound)
				}
				if ok {
					got = append(got, key)
				}
				want = due(1, bound)
			case 2, 3:
				if op == 2 {
					bound = ^uint64(0)
					dst = h.DrainMin(dst[:0], n)
				} else {
					dst = h.DrainMinBounded(dst[:0], n, bound)
				}
				for _, kv := range dst {
					got = append(got, kv.Key)
				}
				want = due(n, bound)
			case 4:
				bound = ^uint64(0)
				key, _, ok := h.PeekMin()
				if ok {
					got = append(got, key)
				}
				if ref.Len() > 0 {
					want = append(want, (*ref)[0])
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("op %d (byte %#x, bound %d): got %v, want %v (single handle must be exact)", i, b, bound, got, want)
			}
			if q.Size() != ref.Len() {
				t.Fatalf("op %d: Size %d, oracle %d", i, q.Size(), ref.Len())
			}
		}
	})
}

// FuzzMixedOpsRelaxed drives the full operation surface — insert,
// delete-min, handle open/close, and Quiesce — against a model binheap with
// relaxation-aware matching: every returned key must be among the ρ+1
// smallest the model holds, with ρ = T·k for the peak number of open
// handles (closed handles drain to the shared structure, so their items
// stay matched). The corpus exercises buffered candidates surviving — and
// flushing across — Quiesce, handle close, and the final drain. The seed
// corpus encodes interleavings that have been
// load-bearing in development: close-with-items mid-stream, quiesce between
// bursts, drain-after-churn (the dry-candidate-window shape behind the
// overlay-only relaxation bug the k-bound suite caught), handle churn
// around reclamation, and a warm-buffer quiesce/close sequence.
func FuzzMixedOpsRelaxed(f *testing.F) {
	// insert bursts, then drain through a fresh handle after a close.
	f.Add([]byte{0x10, 0x00, 0x08, 0x10, 0x18, 0x05, 0x20, 0x03, 0x0b, 0x13, 0x1b})
	// quiesce between bursts, close while the guard state is warm.
	f.Add([]byte{0x00, 0x08, 0x07, 0x10, 0x18, 0x06, 0x07, 0x03, 0x0b})
	// drain-after-churn: many inserts, then deletes through a second handle
	// (the dry-window / overlay-only shape at small k).
	f.Add([]byte{0x40, 0x00, 0x08, 0x10, 0x18, 0x20, 0x28, 0x05, 0x03, 0x0b, 0x13, 0x1b, 0x23, 0x2b, 0x33})
	// close/open churn interleaved with everything, ending in quiesce.
	f.Add([]byte{0x00, 0x05, 0x08, 0x06, 0x10, 0x05, 0x03, 0x06, 0x18, 0x07, 0x0b, 0x07})
	// warm-buffer lifecycle at k=64: deletes
	// fill the buffer, a quiesce publishes under it (anchor break), a handle
	// opens and closes around further buffered pops, then the drain flushes
	// whatever is left — conservation must hold throughout.
	f.Add([]byte{0xb0, 0x00, 0x08, 0x10, 0x18, 0x20, 0x03, 0x04, 0x07, 0x0b, 0x05, 0x1b, 0x06, 0x13, 0x07, 0x23})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		ks := []int{0, 4, 64}
		k := 0
		if len(data) > 0 {
			k = ks[int(data[0]>>6)%len(ks)]
		}
		q := New[struct{}](WithRelaxation(k))
		model := binheap.New(2)
		const maxOpen = 4
		handles := []*Handle[struct{}]{q.NewHandle()}
		peakOpen := 1
		active := 0
		var scratch []uint64

		// matchRelaxed removes key from the model if it ranks within the
		// ρ+1 smallest, reporting whether it did.
		matchRelaxed := func(key uint64) bool {
			rho := peakOpen * k
			scratch = scratch[:0]
			found := false
			for i := 0; i <= rho; i++ {
				m, ok := model.Pop()
				if !ok {
					break
				}
				if m == key {
					found = true
					break
				}
				scratch = append(scratch, m)
			}
			model.PushBulk(scratch)
			return found
		}

		inserted, deleted := 0, 0
		for i, b := range data {
			h := handles[active]
			switch b % 8 {
			case 0, 1, 2:
				key := uint64(b>>3) + uint64(i)<<5
				h.Insert(key, struct{}{})
				model.Push(key)
				inserted++
			case 3, 4:
				key, _, ok := h.TryDeleteMin()
				if !ok {
					continue
				}
				if !matchRelaxed(key) {
					t.Fatalf("op %d: key %d is not among the ρ+1=%d smallest live keys (k=%d, T=%d)",
						i, key, peakOpen*k+1, k, peakOpen)
				}
				deleted++
			case 5:
				if len(handles) < maxOpen {
					handles = append(handles, q.NewHandle())
					active = len(handles) - 1
					if len(handles) > peakOpen {
						peakOpen = len(handles)
					}
				} else {
					active = (active + 1) % len(handles)
				}
			case 6:
				if len(handles) > 1 {
					h.Close()
					handles = append(handles[:active], handles[active+1:]...)
					active %= len(handles)
				}
			case 7:
				q.Quiesce()
			}
		}

		// Drain everything through the first surviving handle; every
		// remaining model key must come back exactly once.
		h := handles[0]
		misses := 0
		for model.Len() > 0 {
			key, _, ok := h.TryDeleteMin()
			if !ok {
				if misses++; misses > 1000 {
					t.Fatalf("queue ran dry with %d keys still live in the model", model.Len())
				}
				continue
			}
			misses = 0
			if !matchRelaxed(key) {
				t.Fatalf("drain: key %d is not among the ρ+1 smallest live keys", key)
			}
			deleted++
		}
		if deleted != inserted {
			t.Fatalf("conservation violated: %d inserted, %d extracted", inserted, deleted)
		}
		if _, _, ok := h.TryDeleteMin(); ok {
			t.Fatal("delete-min succeeded on an empty queue")
		}
		q.Quiesce()
	})
}

// FuzzConservationWithReconfig interleaves inserts, deletes, melds of an
// empty queue, and run-time k changes, checking the conservation invariant
// (nothing lost, nothing duplicated).
func FuzzConservationWithReconfig(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		q := New[struct{}](WithRelaxation(8))
		h := q.NewHandle()
		inserted := map[uint64]int{}
		extracted := map[uint64]int{}
		ins, del := 0, 0
		for i, b := range data {
			switch b % 4 {
			case 0, 1:
				key := uint64(b) + uint64(i)
				h.Insert(key, struct{}{})
				inserted[key]++
				ins++
			case 2:
				if k, _, ok := h.TryDeleteMin(); ok {
					extracted[k]++
					del++
				}
			case 3:
				q.SetRelaxation(int(b) % 512)
			}
		}
		for {
			k, _, ok := h.TryDeleteMin()
			if !ok {
				break
			}
			extracted[k]++
			del++
		}
		if ins != del {
			t.Fatalf("conservation violated: %d inserted, %d extracted", ins, del)
		}
		for k, c := range extracted {
			if inserted[k] < c {
				t.Fatalf("key %d extracted %d times but inserted %d", k, c, inserted[k])
			}
		}
	})
}
