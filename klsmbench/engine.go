package main

import (
	"sync"
	"time"

	"klsm"
	"klsm/internal/ostat"
	"klsm/internal/xrand"
)

const (
	engineK       = 256
	engineHandles = 2
	enginePrefill = 1_000_000
	// engineSample: the untraced run times one op in engineSample.
	engineSample = 16
	// engineSpanSample: the traced run records a span for one op in
	// engineSpanSample (every op is timed).
	engineSpanSample = 128
	// engineReplayOps is the length of the rank-error replay's op stream.
	// Nearly all of the relaxation it measures happens in its first 10^6
	// ops, while the prefilled blocks are consumed; past them the mean rank
	// was ~2·10^-4.
	engineReplayOps = 2_000_000
	// engineKeyShift: keys are uniform over a window of 2^(64-engineKeyShift)
	// (see engineKey).
	engineKeyShift = 24
)

// engineKey returns the key an insert draws from random word x when its
// handle last deleted key last: uniform over the 2^40 keys above last.
// The prefill (last = 0) is uniform over [0, 2^40), so at the start an
// insert lands at a uniformly random rank among the queued keys, as in the
// paper's uniform mix. Drawing later inserts above the handle's last
// deleted key (the classic hold model) keeps that true for the whole run.
// Plain uniform inserts do not: the deletes push the queue's minimum up
// toward the top of the key space, nearly every insert becomes the new
// minimum, and the mix drifts into a stack-like regime whose throughput
// kept climbing through a 20 s run.
func engineKey(last, x uint64) uint64 { return last + x>>engineKeyShift }

// engineValue is the payload stored with key; deletes check it.
func engineValue(key uint64) uint64 { return key*0x9e3779b97f4a7c15 + 1 }

// engineStream returns handle w's op stream: the same seed yields the same
// prefill keys and the same op sequence in the workload and the replay.
func engineStream(seed uint64, w int) *xrand.Source {
	return xrand.NewSeeded(seed*1000003 + uint64(w)*7919 + 17)
}

// engineWorker is one goroutine of the closed loop and its ledger.
type engineWorker struct {
	h          *klsm.Handle[uint64]
	rng        *xrand.Source
	ins, del   int64
	miss, bad  int64
	insSum     uint64 // wrapping sums of inserted and deleted keys
	delSum     uint64
	last       uint64 // the last key this handle deleted
	insH, delH segHist
	segOps     [segments]int64
	prefillN   int64
	prefillSum uint64
}

type engineState struct {
	q  *klsm.Queue[uint64]
	ws []*engineWorker
}

func buildEngine(seed uint64) *engineState {
	st := &engineState{q: klsm.New[uint64](klsm.WithRelaxation(engineK))}
	var wg sync.WaitGroup
	for w := 0; w < engineHandles; w++ {
		ew := &engineWorker{h: st.q.NewHandle(), rng: engineStream(seed, w)}
		st.ws = append(st.ws, ew)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < enginePrefill/engineHandles; i++ {
				k := engineKey(0, ew.rng.Uint64())
				ew.h.Insert(k, engineValue(k))
				ew.prefillSum += k
			}
			ew.prefillN = enginePrefill / engineHandles
		}()
	}
	wg.Wait()
	return st
}

func (st *engineState) close() {
	for _, w := range st.ws {
		w.h.Close()
	}
}

// op runs one op of worker w's stream in segment seg. x is the op's
// random word: bit 0 picks insert or delete.
func (w *engineWorker) op(x uint64, seg int, timed bool, tr *tracer) {
	if x&1 == 0 {
		k := engineKey(w.last, w.rng.Uint64())
		if !timed {
			w.h.Insert(k, engineValue(k))
		} else {
			t0 := time.Now()
			w.h.Insert(k, engineValue(k))
			t1 := time.Now()
			w.insH.record(seg, t1.Sub(t0).Nanoseconds())
			if tr != nil && (x>>8)%engineSpanSample == 0 {
				tr.rec("klsm.Handle.Insert", t0, t1, 0, 0)
			}
		}
		w.ins++
		w.insSum += k
		return
	}
	var k, v uint64
	var ok bool
	if !timed {
		k, v, ok = w.h.TryDeleteMin()
	} else {
		t0 := time.Now()
		k, v, ok = w.h.TryDeleteMin()
		t1 := time.Now()
		w.delH.record(seg, t1.Sub(t0).Nanoseconds())
		if tr != nil && (x>>8)%engineSpanSample == 0 {
			tr.rec("klsm.Handle.TryDeleteMin", t0, t1, 0, 0)
		}
	}
	if !ok {
		// The queue holds ~10^6 keys throughout: any miss is spurious.
		w.miss++
		return
	}
	if v != engineValue(k) {
		w.bad++
	}
	w.del++
	w.delSum += k
	w.last = k
}

// enginePhase runs the closed loop for d and returns the successful ops,
// their rate (the median over segments) and the segment clock. A non-nil
// tr times every op and records spans.
func enginePhase(st *engineState, d time.Duration, tr *tracer) (ops int64, rates []float64, clk *segClock) {
	clk = &segClock{}
	var wg sync.WaitGroup
	for _, w := range st.ws {
		w.insH, w.delH, w.segOps = segHist{}, segHist{}, [segments]int64{}
	}
	for _, w := range st.ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seg := clk.cur()
				if seg >= segments {
					return
				}
				n0 := w.ins + w.del
				for j := 0; j < 64; j++ {
					x := w.rng.Uint64()
					w.op(x, seg, tr != nil || (x>>1)%engineSample == 0, tr)
				}
				w.segOps[seg] += w.ins + w.del - n0
			}
		}()
	}
	clk.run(d)
	wg.Wait()
	var segOps [segments]int64
	for _, w := range st.ws {
		for i, n := range w.segOps {
			segOps[i] += n
			ops += n
		}
	}
	return ops, clk.rates(&segOps), clk
}

func engineUniform(r *run) {
	st := timeSetups(r, func() *engineState { return buildEngine(r.seed) }, (*engineState).close)

	d := r.phaseDuration()
	enginePhase(st, warmup, nil)
	var untracedRate float64
	if r.traced {
		_, rs, _ := enginePhase(st, d, nil)
		untracedRate = median(rs)
	}
	s0 := st.q.Stats()
	p0 := takeSnap()
	hs := r.sampleHeap(d)
	ops, rates, clk := enginePhase(st, d, r.tr)
	p1 := takeSnap()
	// Counters are read before any handle closes: klsm.Stats drops closed
	// handles' counters.
	s1 := st.q.Stats()
	rate := median(rates)
	r.set("ops_per_s", rate)
	if r.traced {
		r.set("bench.trace_overhead_frac", 1-rate/untracedRate)
	}
	r.phaseProc(p0, p1, ops)
	engineLayerCounters(r, s0, s1, ops)
	r.heapLive(hs)

	var insH, delH segHist
	var miss, bad int64
	for _, w := range st.ws {
		insH.add(&w.insH)
		delH.add(&w.delH)
		miss += w.miss
		bad += w.bad
		r.attempted += w.ins + w.del + w.miss
	}
	r.failed = miss
	r.opTiming("insert (Handle.Insert)", &insH, "insert")
	r.opTiming("delete (TryDeleteMin)", &delH, "delete")
	r.note("%-30s %.0f ops/s (median of segments %s over %.3fs), %d spurious misses",
		"throughput", rate, fmtFloats(rates), clk.elapsed().Seconds(), miss)
	r.check(bad == 0, "engine: %d deletes returned a value that does not match the key", bad)

	engineFinalDrain(r, st)
	st.close()

	rank := engineRankReplay(r.seed)
	r.set("rank_err_mean", rank)
	r.note("%-30s %.4f (one-goroutine replay, %d ops)", "rank error mean", rank, engineReplayOps)
}

// engineFinalDrain empties the queue and checks that the count and the
// wrapping sum of drained keys equal prefill + inserted - deleted.
func engineFinalDrain(r *run, st *engineState) {
	var wantN int64
	var wantSum uint64
	for _, w := range st.ws {
		wantN += w.prefillN + w.ins - w.del
		wantSum += w.prefillSum + w.insSum - w.delSum
	}
	var n int64
	var sum uint64
	for pass := 0; pass < 2; pass++ {
		for _, w := range st.ws {
			for {
				k, _, ok := w.h.TryDeleteMin()
				if !ok {
					break
				}
				n++
				sum += k
			}
		}
	}
	r.check(n == wantN, "engine: final drain found %d keys, ledger says %d", n, wantN)
	r.check(sum == wantSum, "engine: final drain key checksum %x, ledger says %x", sum, wantSum)
	r.check(st.q.Size() == 0, "engine: queue reports size %d after the drain", st.q.Size())
}

// engineRankReplay replays the workload's prefill and op streams in one
// goroutine, interleaving the two handles by a seeded coin, and returns the
// mean true rank (keys smaller than the deleted one) over all deletes,
// measured against an order-statistic tree.
func engineRankReplay(seed uint64) float64 {
	q := klsm.New[uint64](klsm.WithRelaxation(engineK))
	t := ostat.New(seed)
	var hs [engineHandles]*klsm.Handle[uint64]
	var rngs [engineHandles]*xrand.Source
	for w := range hs {
		hs[w] = q.NewHandle()
		rngs[w] = engineStream(seed, w)
		for i := 0; i < enginePrefill/engineHandles; i++ {
			k := engineKey(0, rngs[w].Uint64())
			hs[w].Insert(k, engineValue(k))
			t.Insert(k)
		}
	}
	coin := xrand.NewSeeded(seed ^ 0x5bd1e995)
	var rankSum, deletes int64
	var last [engineHandles]uint64
	for i := 0; i < engineReplayOps; i++ {
		w := coin.Intn(engineHandles)
		x := rngs[w].Uint64()
		if x&1 == 0 {
			k := engineKey(last[w], rngs[w].Uint64())
			hs[w].Insert(k, engineValue(k))
			t.Insert(k)
			continue
		}
		if k, _, ok := hs[w].TryDeleteMin(); ok {
			rankSum += int64(t.Rank(k))
			deletes++
			t.Delete(k)
			last[w] = k
		}
	}
	for _, h := range hs {
		h.Close()
	}
	return ratio(float64(rankSum), float64(deletes))
}

// engineLayerCounters derives the per-layer structural ratios from the
// klsm.Stats deltas across a timed phase with ops successful operations.
func engineLayerCounters(r *run, a, b klsm.Stats, ops int64) {
	o := float64(ops)
	del := float64(b.Deleted - a.Deleted)
	overflows := float64(b.Overflows - a.Overflows)
	retries := float64(b.SharedInsertRetries - a.SharedInsertRetries)
	spyCalls := float64(b.SpyCalls - a.SpyCalls)
	fills := float64(b.BufferFills - a.BufferFills)
	r.set("block.merges_per_op", ratio(float64(b.Merges-a.Merges), o))
	r.set("distlsm.overflows_per_op", ratio(overflows, o))
	r.set("distlsm.consolidates_per_op", ratio(float64(b.Consolidates-a.Consolidates), o))
	r.set("distlsm.spy_calls_per_delete", ratio(spyCalls, del))
	r.set("distlsm.spied_blocks_per_spy", ratio(float64(b.SpiedBlocks-a.SpiedBlocks), float64(b.Spies-a.Spies)))
	r.set("sharedlsm.insert_retries_per_overflow", ratio(retries, retries+overflows))
	r.set("sharedlsm.consolidate_pushes_per_op", ratio(float64(b.SharedConsolidatePushes-a.SharedConsolidatePushes), o))
	r.set("core.window_items_per_delete", ratio(float64(b.WindowItems-a.WindowItems), del))
	r.set("core.window_builds_per_delete", ratio(float64(b.WindowBuilds-a.WindowBuilds), del))
	r.set("core.buffer_pop_ratio", ratio(float64(b.BufferPops-a.BufferPops), del))
	r.set("core.buffer_flushes_per_fill", ratio(float64(b.BufferFlushes-a.BufferFlushes), fills))
	r.set("core.hint_skip_ratio", ratio(float64(b.HintSkips-a.HintSkips), del))
	r.set("klsm.handles", float64(b.Handles))
}
