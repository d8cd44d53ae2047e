package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"klsm"
	"klsm/internal/block"
	"klsm/internal/core"
	"klsm/internal/distlsm"
	"klsm/internal/item"
	"klsm/internal/server"
	"klsm/internal/sharedlsm"
	"klsm/internal/walfault"
	"klsm/internal/xrand"
)

// The ladder runs one seeded op stream through each layer in turn, bottom
// to top, in one goroutine. A rung's cost is its time per key; its self
// time is that cost minus the rung below. Rungs 1–4 have single-key APIs
// and run the stream key by key; rungs 5–10 run it as batches of
// ladderBatch keys, the granularity klsmd serves.
const (
	ladderPrefill = 20_000
	ladderOps     = 4_000
	ladderBatch   = 16
	ladderTopics  = 16
	// ladderReps: each rung runs ladderReps times; the fastest run counts.
	ladderReps = 3
)

type ladderOp struct {
	insert bool
	topic  string
	keys   []uint64
	vals   []string
}

// ladderStream builds the prefill keys and the op stream of a seed: a
// coin picks insert or delete-min of ladderBatch keys.
func ladderStream(seed uint64) (prefill []uint64, ops []ladderOp) {
	rng := xrand.NewSeeded(seed*31 + 5)
	for i := 0; i < ladderPrefill; i++ {
		prefill = append(prefill, rng.Uint64())
	}
	for i := 0; i < ladderOps; i++ {
		op := ladderOp{insert: rng.Bool(), topic: klsmdTopic(rng.Intn(ladderTopics))}
		if op.insert {
			for j := 0; j < ladderBatch; j++ {
				k := rng.Uint64()
				op.keys = append(op.keys, k)
				op.vals = append(op.vals, klsmdValue(k))
			}
		}
		ops = append(ops, op)
	}
	return prefill, ops
}

// rungTimes accumulates one rung's insert and delete time and keys.
type rungTimes struct {
	insNs, delNs     int64
	insKeys, delKeys int64
}

func (t *rungTimes) insPerKey() float64 { return ratio(float64(t.insNs), float64(t.insKeys)) }
func (t *rungTimes) delPerKey() float64 { return ratio(float64(t.delNs), float64(t.delKeys)) }
func (t *rungTimes) perKey() float64 {
	return ratio(float64(t.insNs+t.delNs), float64(t.insKeys+t.delKeys))
}

// keyed is a single-key layer: the adapter rungs 1–4 run.
type keyed struct {
	insert    func(k uint64, v string)
	deleteMin func() bool
}

// runKeyed runs the stream key by key, timing each call.
func runKeyed(prefill []uint64, ops []ladderOp, l keyed) rungTimes {
	for _, k := range prefill {
		l.insert(k, klsmdValue(k))
	}
	var t rungTimes
	for _, op := range ops {
		if op.insert {
			for i, k := range op.keys {
				t0 := time.Now()
				l.insert(k, op.vals[i])
				t.insNs += time.Since(t0).Nanoseconds()
			}
			t.insKeys += int64(len(op.keys))
			continue
		}
		for j := 0; j < ladderBatch; j++ {
			t0 := time.Now()
			ok := l.deleteMin()
			t.delNs += time.Since(t0).Nanoseconds()
			if ok {
				t.delKeys++
			}
		}
	}
	return t
}

// batched is a batch layer: the adapter rungs 5–10 run.
type batched struct {
	insertBatch func(topic string, keys []uint64, vals []string)
	drain       func(topic string, n int) int
}

func runBatched(prefill []uint64, ops []ladderOp, l batched) rungTimes {
	for off := 0; off < len(prefill); off += 500 {
		keys := prefill[off:min(off+500, len(prefill))]
		vals := make([]string, len(keys))
		for i, k := range keys {
			vals[i] = klsmdValue(k)
		}
		l.insertBatch(klsmdTopic(off/500%ladderTopics), keys, vals)
	}
	var t rungTimes
	for _, op := range ops {
		t0 := time.Now()
		if op.insert {
			l.insertBatch(op.topic, op.keys, op.vals)
			t.insNs += time.Since(t0).Nanoseconds()
			t.insKeys += int64(len(op.keys))
			continue
		}
		n := l.drain(op.topic, ladderBatch)
		t.delNs += time.Since(t0).Nanoseconds()
		t.delKeys += int64(n)
	}
	return t
}

// best runs a rung ladderReps times on fresh state and keeps the run with
// the lowest per-key cost.
func best(f func() rungTimes) rungTimes {
	var b rungTimes
	for i := 0; i < ladderReps; i++ {
		t := f()
		if i == 0 || t.perKey() < b.perKey() {
			b = t
		}
	}
	return b
}

// blockLSM is rung 1: a sequential log-structured merge of sorted blocks
// built from block operations alone (MergeIn for insert cascades, LiveMin
// and TryTake for delete-min). It also times the merges themselves.
type blockLSM struct {
	pool        *block.Pool[string]
	blocks      []*block.Block[string]
	mergeNs     int64
	mergedItems int64
}

func (l *blockLSM) insert(k uint64, v string) {
	b := l.pool.Get(0)
	b.Append(item.New(k, v))
	l.blocks = append(l.blocks, b)
	for n := len(l.blocks); n >= 2 && l.blocks[n-1].Level() >= l.blocks[n-2].Level(); n = len(l.blocks) {
		b1, b2 := l.blocks[n-2], l.blocks[n-1]
		t0 := time.Now()
		m := block.MergeIn(l.pool, b1, b2, nil)
		l.mergeNs += time.Since(t0).Nanoseconds()
		l.mergedItems += int64(b1.Filled() + b2.Filled())
		l.pool.Put(b1)
		l.pool.Put(b2)
		l.blocks = append(l.blocks[:n-2], m)
	}
}

func (l *blockLSM) deleteMin() bool {
	best := -1
	var bestIt *item.Item[string]
	for i, b := range l.blocks {
		if it, _ := b.LiveMin(); it != nil && (bestIt == nil || it.Key() < bestIt.Key()) {
			best, bestIt = i, it
		}
	}
	if bestIt == nil || !bestIt.TryTake() {
		return false
	}
	if b := l.blocks[best]; b.ShrinkInPlace() == 0 {
		l.blocks = append(l.blocks[:best], l.blocks[best+1:]...)
		l.pool.Put(b)
	}
	return true
}

// ladderServer starts a durable in-process server on MemFS shards.
func ladderServer() (*server.Server, error) {
	fc := &fsCounters{}
	return server.New(server.Config{
		Shards: klsmdShards,
		FS: func(int) walfault.FS {
			return countFS{FS: walfault.NewMemFS(walfault.Faults{}), c: fc}
		},
		QueueOptions: klsmdQueueOptions(),
	})
}

// httpBatched drives a server's enqueue and dequeue endpoints through do,
// recording the first failed request as a check failure of r.
func httpBatched(r *run, do func(path string, body []byte) ([]byte, error)) batched {
	var body []byte
	failed := false
	call := func(path string) []byte {
		out, err := do(path, body)
		if err != nil && !failed {
			failed = true
			r.check(false, "ladder: %s: %v", path, err)
		}
		return out
	}
	return batched{
		insertBatch: func(topic string, keys []uint64, vals []string) {
			b := append(body[:0], `{"topic":"`...)
			b = append(b, topic...)
			b = append(b, `","items":[`...)
			for i, k := range keys {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"key":`...)
				b = strconv.AppendUint(b, k, 10)
				b = append(b, `,"value":"`...)
				b = append(b, vals[i]...)
				b = append(b, `"}`...)
			}
			body = append(b, "]}"...)
			call("/v1/enqueue")
		},
		drain: func(topic string, n int) int {
			body = fmt.Appendf(body[:0], `{"topic":%q,"max":%d}`, topic, n)
			return bytes.Count(call("/v1/dequeue"), []byte(`"key"`))
		},
	}
}

// ladder runs every rung and reports per-key costs, self times and the
// layer timings the rungs isolate.
func ladder(r *run) {
	prefill, ops := ladderStream(r.seed)
	rungs := make([]rungTimes, len(ladderRungs))

	mergeNsPerItem := math.Inf(1)
	rungs[0] = best(func() rungTimes {
		l := &blockLSM{pool: block.NewPool[string](nil)}
		t := runKeyed(prefill, ops, keyed{insert: l.insert, deleteMin: l.deleteMin})
		mergeNsPerItem = math.Min(mergeNsPerItem, ratio(float64(l.mergeNs), float64(l.mergedItems)))
		return t
	})
	r.set("block.merge_ns_per_item", mergeNsPerItem)

	rungs[1] = best(func() rungTimes {
		d := distlsm.New[string](1, -1)
		return runKeyed(prefill, ops, keyed{
			insert: func(k uint64, v string) { d.Insert(item.New(k, v), nil) },
			deleteMin: func() bool {
				for it := d.FindMin(); it != nil; it = d.FindMin() {
					if it.TryTake() {
						return true
					}
				}
				return false
			},
		})
	})
	r.set("distlsm.insert_ns", rungs[1].insPerKey())
	r.set("distlsm.findmin_ns", rungs[1].delPerKey())

	rungs[2] = best(func() rungTimes {
		s := sharedlsm.New[string](klsmdK, true)
		c := s.NewCursor(1, xrand.NewSeeded(r.seed))
		return runKeyed(prefill, ops, keyed{
			insert: func(k uint64, v string) {
				b := block.New[string](0)
				b.Append(item.New(k, v))
				b.AddOwner(1)
				s.Insert(c, b)
			},
			deleteMin: func() bool {
				for it := s.FindMin(c); it != nil; it = s.FindMin(c) {
					if it.TryTake() {
						return true
					}
				}
				return false
			},
		})
	})
	r.set("sharedlsm.insert_ns", rungs[2].insPerKey())
	r.set("sharedlsm.findmin_ns", rungs[2].delPerKey())

	rungs[3] = best(func() rungTimes {
		q := core.NewQueue(core.Config[string]{K: klsmdK, Mode: core.Combined, LocalOrdering: true})
		h := q.NewHandle()
		defer h.Close()
		return runKeyed(prefill, ops, keyed{
			insert:    h.Insert,
			deleteMin: func() bool { _, _, ok := h.TryDeleteMin(); return ok },
		})
	})
	r.set("core.insert_ns", rungs[3].insPerKey())
	r.set("core.deletemin_ns", rungs[3].delPerKey())

	// Rung 5: the public handle, single keys (reported as klsm.handle_*)
	// and batches (the rung's own figure).
	single := best(func() rungTimes {
		q := klsm.New[string](klsm.WithRelaxation(klsmdK))
		h := q.NewHandle()
		defer h.Close()
		return runKeyed(prefill, ops, keyed{
			insert:    h.Insert,
			deleteMin: func() bool { _, _, ok := h.TryDeleteMin(); return ok },
		})
	})
	r.set("klsm.handle_insert_ns", single.insPerKey())
	r.set("klsm.handle_deletemin_ns", single.delPerKey())
	rungs[4] = best(func() rungTimes {
		q := klsm.New[string](klsm.WithRelaxation(klsmdK))
		h := q.NewHandle()
		defer h.Close()
		var dst []klsm.KV[uint64, string]
		return runBatched(prefill, ops, batched{
			insertBatch: func(_ string, keys []uint64, vals []string) { h.InsertBatch(keys, vals) },
			drain:       func(_ string, n int) int { dst = h.DrainMin(dst[:0], n); return len(dst) },
		})
	})
	r.set("klsm.insert_batch_ns_per_key", rungs[4].insPerKey())
	r.set("klsm.drain_min_ns_per_key", rungs[4].delPerKey())

	// Rung 6: handle-free Queue (registry borrow), plus OrderedQueue with
	// TimeKey for the timer path's key codec.
	single = best(func() rungTimes {
		q := klsm.New[string](klsm.WithRelaxation(klsmdK))
		return runKeyed(prefill, ops, keyed{
			insert:    q.Insert,
			deleteMin: func() bool { _, _, ok := q.TryDeleteMin(); return ok },
		})
	})
	r.set("klsm.queue_insert_ns", single.insPerKey())
	r.set("klsm.queue_deletemin_ns", single.delPerKey())
	timeKey := best(func() rungTimes {
		q := klsm.NewOrdered[time.Time, string](klsm.TimeKey(), klsm.WithRelaxation(klsmdK))
		base := time.Now()
		return runKeyed(prefill, ops, keyed{
			insert:    func(k uint64, v string) { q.Insert(base.Add(time.Duration(k>>34)), v) },
			deleteMin: func() bool { _, _, ok := q.TryDeleteMin(); return ok },
		})
	})
	r.set("klsm.timekey_insert_ns", timeKey.insPerKey())
	rungs[5] = best(func() rungTimes {
		q := klsm.New[string](klsm.WithRelaxation(klsmdK))
		var dst []klsm.KV[uint64, string]
		return runBatched(prefill, ops, batched{
			insertBatch: func(_ string, keys []uint64, vals []string) { q.InsertBatch(keys, vals) },
			drain:       func(_ string, n int) int { dst = q.DrainMin(dst[:0], n); return len(dst) },
		})
	})

	// Rung 7: a persistent queue on the MemFS behind the counting wrapper,
	// with a Sync per batch. The InsertBatch time alone, minus rung 6's,
	// is the WAL append cost per key.
	var appendNs, appendKeys int64
	rungs[6] = best(func() rungTimes {
		fs := countFS{FS: walfault.NewMemFS(walfault.Faults{}), c: &fsCounters{}}
		q, err := klsm.OpenFS(fs, "ladder", klsm.StringValue{}, klsmdQueueOptions()...)
		if err != nil {
			r.check(false, "ladder: open: %v", err)
			return rungTimes{}
		}
		defer q.Close()
		var dst []klsm.KV[uint64, string]
		appendNs, appendKeys = 0, 0
		return runBatched(prefill, ops, batched{
			insertBatch: func(_ string, keys []uint64, vals []string) {
				t0 := time.Now()
				q.InsertBatch(keys, vals)
				appendNs += time.Since(t0).Nanoseconds()
				appendKeys += int64(len(keys))
				q.Sync()
			},
			drain: func(_ string, n int) int { dst = q.DrainMin(dst[:0], n); q.Sync(); return len(dst) },
		})
	})
	r.set("wal.append_ns", ratio(float64(appendNs), float64(appendKeys))-rungs[5].insPerKey())

	// Rung 8: a router handle over durable shards, syncing the shard each
	// batch touched.
	rungs[7] = best(func() rungTimes {
		fc := &fsCounters{}
		var qs []*klsm.Queue[string]
		for i := 0; i < klsmdShards; i++ {
			fs := countFS{FS: walfault.NewMemFS(walfault.Faults{}), c: fc}
			q, err := klsm.OpenFS(fs, fmt.Sprintf("shard-%03d", i), klsm.StringValue{}, klsmdQueueOptions()...)
			if err != nil {
				r.check(false, "ladder: open shard: %v", err)
				return rungTimes{}
			}
			defer q.Close()
			qs = append(qs, q)
		}
		rt := server.NewRouter(qs, 0)
		h := rt.NewHandle()
		defer h.Close()
		var dst []klsm.KV[uint64, string]
		return runBatched(prefill, ops, batched{
			insertBatch: func(topic string, keys []uint64, vals []string) {
				h.InsertBatch(topic, keys, vals)
				rt.Queue(rt.Shard(topic)).Sync()
			},
			drain: func(topic string, n int) int {
				dst = h.DrainTopic(topic, dst[:0], n)
				rt.Queue(rt.Shard(topic)).Sync()
				return len(dst)
			},
		})
	})
	r.set("server.router_insert_batch_ns_per_key", rungs[7].insPerKey())

	// Rung 9: the server's handler called in process on a recorder.
	var requests int64
	rungs[8] = best(func() rungTimes {
		srv, err := ladderServer()
		if err != nil {
			r.check(false, "ladder: server: %v", err)
			return rungTimes{}
		}
		defer srv.Shutdown(context.Background())
		h := srv.Handler()
		requests = 0
		return runBatched(prefill, ops, httpBatched(r, func(path string, body []byte) ([]byte, error) {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			requests++
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("status %d", rec.Code)
			}
			return rec.Body.Bytes(), nil
		}))
	})
	r.set("server.inproc_request_us", float64(rungs[8].insNs+rungs[8].delNs)/1e3/float64(ladderOps))
	r.check(requests > 0, "ladder: no in-process requests ran")

	// Rung 10: the same server over one keep-alive loopback connection.
	rungs[9] = best(func() rungTimes {
		srv, err := ladderServer()
		if err != nil {
			r.check(false, "ladder: server: %v", err)
			return rungTimes{}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Shutdown(context.Background())
			r.check(false, "ladder: listen: %v", err)
			return rungTimes{}
		}
		hs := &http.Server{Handler: srv.Handler()}
		done := make(chan struct{})
		go func() { hs.Serve(ln); close(done) }()
		tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
		hc := &http.Client{Transport: tp}
		base := "http://" + ln.Addr().String()
		defer func() {
			tp.CloseIdleConnections()
			hs.Shutdown(context.Background())
			<-done
			srv.Shutdown(context.Background())
		}()
		return runBatched(prefill, ops, httpBatched(r, func(path string, body []byte) ([]byte, error) {
			resp, err := hc.Post(base+path, "application/json", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			defer resp.Body.Close()
			out, err := io.ReadAll(resp.Body)
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			return out, err
		}))
	})

	for i, name := range ladderRungs {
		cost := rungs[i].perKey()
		self := cost
		if i > 0 {
			self -= rungs[i-1].perKey()
		}
		r.set("ladder."+name+".ns_per_key", cost)
		r.set("ladder."+name+".self_ns_per_key", self)
		r.note("ladder %-2d %-12s %10.1f ns/key  self %10.1f ns/key  (insert %.1f, delete %.1f ns/key)",
			i+1, name, cost, self, rungs[i].insPerKey(), rungs[i].delPerKey())
	}
}
