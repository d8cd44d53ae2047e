package main

import (
	"sync"
	"sync/atomic"
	"time"

	"klsm"
	"klsm/internal/ostat"
	"klsm/internal/xrand"
	"klsm/timerq"
)

const (
	timerK = 256
	// timerPending long-lived timers are scheduled at set-up, due between
	// timerLongMin and timerLongMin+timerLongSpan later: far past the run,
	// they fire in the final Expire. They hold the pending population
	// near 5·10^5 while the generator churns short-lived timers.
	timerPending  = 500_000
	timerLongMin  = time.Minute
	timerLongSpan = time.Minute
	// timerHorizon spans the short-lived deadlines: each is due uniformly
	// within timerHorizon of the time its Schedule was due.
	timerHorizon = 4 * time.Second
	// timerRate is the generator's offered rate of Schedule plus Cancel
	// calls per second, two Schedules for each Cancel, frozen at about a
	// quarter of the closed-loop rate this generator reached on a 2-CPU
	// container (~180k calls/s with 5·10^5 timers pending and the 1 ms
	// expirer running). At half that rate, Schedule stalls of 20-400 ms
	// and the backlog behind them covered about a third of all calls, so
	// even the median lateness moved by ±20% from run to run.
	timerRate = 48_000
	// timerCancelWindow: a Cancel targets one of the timers scheduled by
	// the last timerCancelWindow Schedules, most of them still pending.
	timerCancelWindow = timerRate * 2 / 3 * int64(timerHorizon/time.Second)
	// timerTick is the expirer's period.
	timerTick = time.Millisecond
	// timerSample: the untraced run times one call in timerSample.
	timerSample = 8
	// timerSpanSample: the traced run records a span for one call in
	// timerSpanSample.
	timerSpanSample = 16
	// timerReplayTicks is the virtual length of the rank-error replay.
	timerReplayTicks = 40_000
)

// Timer states in timerState.st, indexed by TimerID.
const (
	timerPendingSt uint32 = iota
	timerCanceledSt
	timerFiredSt
)

// timerState is one timerq instance with the exactly-once ledger of its
// timers and the generator's position in its op stream.
type timerState struct {
	q   *timerq.Queue[struct{}]
	rng *xrand.Source
	st  []atomic.Uint32 // by TimerID
	n   int64           // timers scheduled so far (the largest TimerID)
	op  int64           // generator ops issued so far

	doubleFire, fireAfterCancel, cancelAfterFire, schedErrs int64 // atomically updated
}

func timerStream(seed uint64) *xrand.Source { return xrand.NewSeeded(seed*0x2545f4914f6cdd1d + 11) }

func buildTimers(seed uint64, capacity int) *timerState {
	ts := &timerState{
		q:   timerq.New[struct{}](timerq.WithQueueOptions(klsm.WithRelaxation(timerK))),
		rng: timerStream(seed),
		st:  make([]atomic.Uint32, capacity+1),
	}
	now := time.Now()
	for i := 0; i < timerPending; i++ {
		ts.schedule(now.Add(timerLongMin + time.Duration(ts.rng.Uint64n(uint64(timerLongSpan)))))
	}
	return ts
}

func (ts *timerState) schedule(deadline time.Time) {
	id, err := ts.q.Schedule(deadline, struct{}{})
	if err != nil || int(id) >= len(ts.st) {
		atomic.AddInt64(&ts.schedErrs, 1)
		return
	}
	ts.n = int64(id)
}

// cancel cancels the given timer and checks the answer against the ledger.
func (ts *timerState) cancel(id timerq.TimerID) bool {
	if !ts.q.Cancel(id) {
		return false
	}
	if !ts.st[id].CompareAndSwap(timerPendingSt, timerCanceledSt) {
		atomic.AddInt64(&ts.cancelAfterFire, 1)
	}
	return true
}

func (ts *timerState) fired(id timerq.TimerID) {
	if int(id) >= len(ts.st) {
		return
	}
	if !ts.st[id].CompareAndSwap(timerPendingSt, timerFiredSt) {
		if ts.st[id].Load() == timerFiredSt {
			atomic.AddInt64(&ts.doubleFire, 1)
		} else {
			atomic.AddInt64(&ts.fireAfterCancel, 1)
		}
	}
}

// timerPhaseStats is what one timed phase measured.
type timerPhaseStats struct {
	schedules, cancels, hits, fires, expires                       int64
	schedH, cancelH, schedCallH, cancelCallH, lagH, lateH, expireH segHist
	segOps                                                         [segments]int64
	maxFootprint                                                   float64
	rate                                                           float64 // calls+fires per second, median over segments
	garbageSum                                                     float64
	samples                                                        int64
}

// timerPhase runs the open-loop generator and the expirer for d. Calls are
// timed from their due time; fire lateness counts only timers whose
// deadline falls inside the phase.
func timerPhase(ts *timerState, d time.Duration, tr *tracer) (ps timerPhaseStats, elapsed time.Duration) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	lateFrom, lateTo := t0.UnixNano(), t0.Add(d).UnixNano()
	var fires atomic.Int64
	var segFires [segments]atomic.Int64
	segOf := func(t time.Time) int { return min(int(t.Sub(t0)*segments/d), segments-1) }

	wg.Add(1)
	go func() { // the expirer
		defer wg.Done()
		tk := time.NewTicker(timerTick)
		defer tk.Stop()
		var ticks int64
		emit := func(id timerq.TimerID, deadline time.Time, _ struct{}) {
			ts.fired(id)
			if dl := deadline.UnixNano(); dl >= lateFrom && dl < lateTo {
				now := time.Now()
				ps.lateH.record(segOf(now), now.UnixNano()-dl)
			}
		}
		for !stop.Load() {
			<-tk.C
			e0 := time.Now()
			n := ts.q.Expire(e0, emit)
			e1 := time.Now()
			fires.Add(int64(n))
			segFires[segOf(e0)].Add(int64(n))
			ps.expires++
			ps.expireH.record(segOf(e0), e1.Sub(e0).Nanoseconds())
			if tr != nil {
				tr.rec("timerq.Expire", e0, e1, 0, 0)
			}
			if ticks++; ticks%10 == 0 {
				st := ts.q.Stats()
				if st.Pending > 0 {
					ps.maxFootprint = max(ps.maxFootprint, float64(st.Footprint)/float64(st.Pending))
					ps.garbageSum += float64(st.GarbageEstimate) / float64(st.Pending)
					ps.samples++
				}
			}
		}
	}()

	interval := time.Second / timerRate
	for i := int64(0); ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if due.Sub(t0) >= d {
			break
		}
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			time.Sleep(wait)
			now = time.Now()
		}
		seg := segOf(due)
		ps.segOps[seg]++
		ps.lagH.record(seg, now.Sub(due).Nanoseconds())
		x := ts.rng.Uint64()
		timed := tr != nil || x%timerSample == 0
		span := tr != nil && (x>>8)%timerSpanSample == 0
		if ts.op%3 == 2 {
			id := timerq.TimerID(ts.n - int64(ts.rng.Uint64n(uint64(min(ts.n, timerCancelWindow)))))
			c0 := time.Now()
			hit := ts.cancel(id)
			c1 := time.Now()
			ps.cancels++
			if hit {
				ps.hits++
			}
			if timed {
				ps.cancelH.record(seg, c1.Sub(due).Nanoseconds())
				ps.cancelCallH.record(seg, c1.Sub(c0).Nanoseconds())
			}
			if span {
				tr.rec("timerq.Cancel", c0, c1, 0, 0)
			}
		} else {
			dl := due.Add(time.Duration(ts.rng.Uint64n(uint64(timerHorizon))))
			c0 := time.Now()
			ts.schedule(dl)
			c1 := time.Now()
			ps.schedules++
			if timed {
				ps.schedH.record(seg, c1.Sub(due).Nanoseconds())
				ps.schedCallH.record(seg, c1.Sub(c0).Nanoseconds())
			}
			if span {
				tr.rec("timerq.Schedule", c0, c1, 0, 0)
			}
		}
		ts.op++
	}
	elapsed = time.Since(t0)
	stop.Store(true)
	wg.Wait()
	ps.fires = fires.Load()
	// Calls are paced by their due times, so a segment's length is d/segments.
	var rs []float64
	for i := range ps.segOps {
		rs = append(rs, float64(ps.segOps[i]+segFires[i].Load())/(d.Seconds()/segments))
	}
	ps.rate = median(rs)
	return ps, elapsed
}

// timerCapacity bounds the TimerIDs one run can issue.
func (r *run) timerCapacity() int {
	return timerPending + int((r.seconds+warmup.Seconds())*timerRate*2/3) + 1024
}

func timerChurn(r *run) {
	capacity := r.timerCapacity()
	ts := timeSetups(r, func() *timerState { return buildTimers(r.seed, capacity) }, func(*timerState) {})

	d := r.phaseDuration()
	timerPhase(ts, warmup, nil)
	var untracedRate float64
	if r.traced {
		ps, _ := timerPhase(ts, d, nil)
		untracedRate = ps.rate
	}
	s0 := ts.q.Stats()
	p0 := takeSnap()
	hs := r.sampleHeap(d)
	ps, elapsed := timerPhase(ts, d, r.tr)
	p1 := takeSnap()
	s1 := ts.q.Stats()
	ops := ps.schedules + ps.cancels + ps.fires
	rate := ps.rate
	r.set("ops_per_s", rate)
	if r.traced {
		r.set("bench.trace_overhead_frac", 1-rate/untracedRate)
	}
	r.phaseProc(p0, p1, ops)
	r.heapLive(hs)
	r.attempted = ps.schedules + ps.cancels
	r.failed = ts.schedErrs

	r.opTiming("insert (Schedule call)", &ps.schedCallH, "insert")
	r.opTiming("delete (Cancel call)", &ps.cancelCallH, "delete")
	r.timing("Schedule from its due time", &ps.schedH, "timerq.schedule_due_p50_us", "timerq.schedule_due_p99_us")
	r.timing("Cancel from its due time", &ps.cancelH, "timerq.cancel_due_p50_us", "timerq.cancel_due_p99_us")
	r.timing("fire lateness", &ps.lateH, "timerq.fire_late_p50_us", "timerq.fire_late_p99_us")
	r.timing("generator lag", &ps.lagH, "", "timerq.gen_lag_p99_us")
	r.timing("Expire call", &ps.expireH, "timerq.expire_us_p50", "timerq.expire_us_p99")
	r.set("timerq.footprint_ratio", ps.maxFootprint)
	r.set("timerq.garbage_ratio", ratio(ps.garbageSum, float64(ps.samples)))
	r.set("timerq.fired_per_expire", ratio(float64(ps.fires), float64(ps.expires)))
	r.set("timerq.compactions", float64(s1.Compactions-s0.Compactions))
	r.set("timerq.cancel_hit_ratio", ratio(float64(ps.hits), float64(ps.cancels)))
	r.note("%-30s %.0f ops/s over %.3fs: %d schedules, %d cancels (%d hit), %d fires; pending %d -> %d, max footprint/len %.3f",
		"throughput", rate, elapsed.Seconds(), ps.schedules, ps.cancels, ps.hits, ps.fires, s0.Pending, s1.Pending, ps.maxFootprint)

	timerFinalCheck(r, ts)

	rank := timerRankReplay(r.seed)
	r.set("rank_err_mean", rank)
	r.note("%-30s %.4f (one-goroutine virtual-time replay, %d ticks)", "rank error mean", rank, timerReplayTicks)
}

// timerFinalCheck expires past the horizon and checks exactly-once firing:
// no timer fired twice or after a successful Cancel, and every timer not
// canceled has fired.
func timerFinalCheck(r *run, ts *timerState) {
	ts.q.Expire(time.Now().Add(timerLongMin+timerLongSpan), func(id timerq.TimerID, _ time.Time, _ struct{}) { ts.fired(id) })
	r.check(ts.doubleFire == 0, "timerq: %d timers fired twice", ts.doubleFire)
	r.check(ts.fireAfterCancel == 0, "timerq: %d timers fired after Cancel returned true", ts.fireAfterCancel)
	r.check(ts.cancelAfterFire == 0, "timerq: %d Cancels returned true for fired timers", ts.cancelAfterFire)
	r.check(ts.schedErrs == 0, "timerq: %d Schedule calls failed", ts.schedErrs)
	unfired := 0
	for id := int64(1); id <= ts.n; id++ {
		if ts.st[id].Load() == timerPendingSt {
			unfired++
		}
	}
	r.check(unfired == 0, "timerq: %d un-canceled timers never fired", unfired)
	r.check(ts.q.Len() == 0, "timerq: %d timers still pending after the final Expire", ts.q.Len())
}

// timerRankReplay replays the timer op stream in one goroutine on a
// virtual clock: a schedule handle inserts deadlines, an expiry handle
// drains due keys in bounded batches every tick, and canceled timers stay
// behind as tombstones dropped by the merge filter, as in timerq. It
// returns the mean rank of each fired timer among the pending ones.
func timerRankReplay(seed uint64) float64 {
	rng := timerStream(seed)
	n := timerPending + timerReplayTicks*timerRate/1000
	deadline := make([]uint64, n+1)
	state := make([]uint32, n+1)
	q := klsm.NewWithDrop[uint64](func(_ uint64, id uint64) bool { return state[id] == timerCanceledSt }, klsm.WithRelaxation(timerK))
	hs, he := q.NewHandle(), q.NewHandle()
	defer hs.Close()
	defer he.Close()
	t := ostat.New(seed)
	next := uint64(0)
	schedule := func(now uint64) {
		next++
		dl := now + rng.Uint64n(uint64(timerHorizon))
		deadline[next] = dl
		hs.Insert(dl, next)
		t.Insert(dl)
	}
	for i := 0; i < timerPending; i++ {
		next++
		dl := uint64(timerLongMin) + rng.Uint64n(uint64(timerLongSpan))
		deadline[next] = dl
		hs.Insert(dl, next)
		t.Insert(dl)
	}
	var rankSum, fires int64
	var dst []klsm.KV[uint64, uint64]
	op := 0
	for tick := 1; tick <= timerReplayTicks; tick++ {
		now := uint64(tick) * uint64(timerTick)
		for j := 0; j < timerRate/1000; j++ {
			rng.Uint64() // the generator's timing word
			if op%3 == 2 {
				if id := next - rng.Uint64n(min(next, uint64(timerCancelWindow))); state[id] == timerPendingSt {
					state[id] = timerCanceledSt
					t.Delete(deadline[id])
				}
			} else {
				schedule(now)
			}
			op++
		}
		for {
			dst = he.DrainMinBounded(dst[:0], 256, now)
			for _, kv := range dst {
				if state[kv.Value] != timerPendingSt {
					continue
				}
				state[kv.Value] = timerFiredSt
				rankSum += int64(t.Rank(kv.Key))
				t.Delete(kv.Key)
				fires++
			}
			if len(dst) < 256 {
				break
			}
		}
	}
	return ratio(float64(rankSum), float64(fires))
}
