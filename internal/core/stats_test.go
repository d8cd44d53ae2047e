package core

import (
	"reflect"
	"sync"
	"testing"
)

func TestStatsQuiescent(t *testing.T) {
	q := combined(4) // small k: plenty of overflows and merges
	h := q.NewHandle()
	for i := uint64(0); i < 1000; i++ {
		h.Insert(i, 0)
	}
	consumer := q.NewHandle()
	for {
		if _, _, ok := consumer.TryDeleteMin(); !ok {
			break
		}
	}
	s := q.Stats()
	if s.Handles != 2 {
		t.Fatalf("Handles = %d", s.Handles)
	}
	if s.Inserted != 1000 || s.Deleted != 1000 {
		t.Fatalf("Inserted/Deleted = %d/%d", s.Inserted, s.Deleted)
	}
	if s.Merges == 0 {
		t.Fatal("no merges recorded for 1000 inserts at k=4")
	}
	if s.Overflows == 0 {
		t.Fatal("no overflows recorded at k=4")
	}
	if s.SpyCalls == 0 {
		t.Fatal("consumer must have spied at least once")
	}
}

// TestStatsSurviveClose: Stats counters are lifetime totals, so closing a
// handle must not take its counters with it (a scraper computing rates
// from two snapshots would otherwise see them go backwards).
func TestStatsSurviveClose(t *testing.T) {
	q := combined(4)
	h := q.NewHandle()
	for i := uint64(0); i < 1000; i++ {
		h.Insert(i, 0)
	}
	for i := 0; i < 400; i++ {
		if _, _, ok := h.TryDeleteMin(); !ok {
			t.Fatalf("empty after %d deletes", i)
		}
	}
	before := q.Stats()
	h.Close()
	after := q.Stats()
	if after.Handles != 0 {
		t.Fatalf("Handles = %d after close", after.Handles)
	}
	// Close may add events (its drain overflows local blocks), never lose
	// them.
	b, a := reflect.ValueOf(before), reflect.ValueOf(after)
	for i := 0; i < b.NumField(); i++ {
		if f := b.Type().Field(i); f.Type.Kind() == reflect.Int64 && a.Field(i).Int() < b.Field(i).Int() {
			t.Errorf("%s decreased across Close: %d -> %d", f.Name, b.Field(i).Int(), a.Field(i).Int())
		}
	}
	if after.Inserted != 1000 || after.Deleted != 400 || after.BufferPops == 0 {
		t.Fatalf("Inserted/Deleted/BufferPops = %d/%d/%d, want 1000/400/>0",
			after.Inserted, after.Deleted, after.BufferPops)
	}
	if got := q.Size(); got != 600 {
		t.Fatalf("Size = %d after close, want 600", got)
	}
}

// TestStatsConcurrentReads verifies Stats is safe to call while the queue
// is under load and handles close, folding their counters into the queue
// (run with -race).
func TestStatsConcurrentReads(t *testing.T) {
	q := combined(64)
	var workers sync.WaitGroup
	for w := 0; w < 3; w++ {
		workers.Add(1)
		go func(id int) {
			defer workers.Done()
			h := q.NewHandle()
			defer h.Close()
			for i := 0; i < 20000; i++ {
				if i%2 == 0 {
					h.Insert(uint64(id*20000+i), 0)
				} else {
					h.TryDeleteMin()
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				// The value itself is racy-by-design (per-handle counters
				// are read at different instants); this loop exists to let
				// the race detector check the memory safety of concurrent
				// Stats calls.
				_ = q.Stats()
			}
		}
	}()
	workers.Wait()
	close(stop)
	reader.Wait()
}
