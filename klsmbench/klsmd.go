package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"klsm"
	"klsm/internal/ostat"
	"klsm/internal/server"
	"klsm/internal/walfault"
	"klsm/internal/xrand"
)

const (
	klsmdShards   = 4
	klsmdK        = 256
	klsmdClients  = 2
	klsmdBatch    = 16
	klsmdTopics   = 16
	klsmdPrefill  = 20_000
	klsmdValueLen = 8
	// klsmdCkptBytes is the auto-checkpoint size trigger: a shard
	// checkpoints once its live WAL passes it, several times per run.
	klsmdCkptBytes = 256 << 10
	// klsmdRate is the offered load in keys per second, spread evenly over
	// the clients: every request moves klsmdBatch keys, so each client
	// sends one request every klsmdClients*klsmdBatch/klsmdRate seconds
	// (500 µs). It is frozen at about half of the closed-loop rate a
	// 2-CPU container sustained with the same two connections (131k keys/s,
	// median of ten runs). Closed-loop throughput is not a usable gate on
	// such a host: losing a third of the CPU to another process cost the
	// closed loop 42% of its rate (a stalled handoff stalls the whole
	// pipeline), and ten runs spread 20-30% around their median, while at
	// this rate the server keeps up with the same competitor running.
	klsmdRate = 64_000
	// klsmdSample: the untraced run times one request in klsmdSample.
	klsmdSample = 1
	// klsmdReplayOps is the length of the rank-error replay's op stream.
	klsmdReplayOps = 60_000
)

const dataFSDescription = "walfault.MemFS per shard (in-process, no disk) behind a counting walfault.FS wrapper"

var flushPolicy = fmt.Sprintf("2ms group commit (WithSyncInterval); Sync before every dequeue response; "+
	"auto-checkpoint when a shard's live WAL exceeds %d bytes", klsmdCkptBytes)

func klsmdQueueOptions() []klsm.Option {
	return []klsm.Option{
		klsm.WithRelaxation(klsmdK),
		klsm.WithSyncInterval(2 * time.Millisecond),
		klsm.WithAutoCheckpoint(klsmdCkptBytes, 0),
	}
}

// fsCounters are the device-boundary counts of every shard's FS.
type fsCounters struct {
	writes, writeBytes, segBytes, syncs atomic.Int64

	mu            sync.Mutex
	walSync, sync segHist                // one segment: fsyncs are not tied to the clock
	tr            atomic.Pointer[tracer] // set for the traced phase
}

func (c *fsCounters) snapshot() (writes, writeBytes, segBytes, syncs int64) {
	return c.writes.Load(), c.writeBytes.Load(), c.segBytes.Load(), c.syncs.Load()
}

// countFS is a walfault.FS that counts and times the Write and Sync calls
// of the files it opens.
type countFS struct {
	walfault.FS
	c *fsCounters
}

func (f countFS) Create(name string) (walfault.File, error) {
	fl, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: fl, c: f.c, name: name}, nil
}

func (f countFS) Append(name string) (walfault.File, error) {
	fl, err := f.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: fl, c: f.c, name: name}, nil
}

type countFile struct {
	walfault.File
	c    *fsCounters
	name string
}

func (f *countFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.c.writes.Add(1)
	f.c.writeBytes.Add(int64(n))
	if strings.HasPrefix(f.name, "seg") {
		f.c.segBytes.Add(int64(n))
	}
	if tr := f.c.tr.Load(); tr != nil {
		tr.rec("walfault.Write", t0, time.Now(), 0, 0)
	}
	return n, err
}

func (f *countFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	t1 := time.Now()
	f.c.syncs.Add(1)
	f.c.mu.Lock()
	f.c.sync.record(0, t1.Sub(t0).Nanoseconds())
	if strings.HasPrefix(f.name, "wal") {
		f.c.walSync.record(0, t1.Sub(t0).Nanoseconds())
	}
	f.c.mu.Unlock()
	if tr := f.c.tr.Load(); tr != nil {
		tr.rec("walfault.Sync", t0, t1, 0, 0)
	}
	return err
}

// klsmdKey returns the unique key of client c's i-th enqueued item: a
// bijective mix of the counter, so keys look uniform and never repeat.
func klsmdKey(seed uint64, c, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(c)<<40 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func klsmdValue(key uint64) string { return fmt.Sprintf("%08x", uint32(key)) }

func klsmdTopic(i int) string { return fmt.Sprintf("t%02d", i) }

// klsmdEnv is one server instance with its listener, FS and counters.
type klsmdEnv struct {
	fss  []*walfault.MemFS
	fc   *fsCounters
	srv  *server.Server
	hs   *http.Server
	addr string
	done chan error

	// handlerNs maps a traced request id to its handler duration.
	hmu        sync.Mutex
	handlerNs  map[uint64]int64
	enqHandler segHist // one segment: handler spans of the traced phase
	deqHandler segHist
	tr         atomic.Pointer[tracer] // set for the traced phase
}

// wrap is the benchmark's timing wrapper around the server's handler: in a
// traced run it records a handler span per request, linked to the client
// span through the X-Bench-Req and X-Bench-Span headers.
func (e *klsmdEnv) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := e.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, req)
			return
		}
		id, _ := strconv.ParseUint(req.Header.Get("X-Bench-Req"), 10, 64)
		parent, _ := strconv.ParseUint(req.Header.Get("X-Bench-Span"), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, req)
		t1 := time.Now()
		tr.rec("server.handler "+req.URL.Path, t0, t1, parent, id)
		ns := t1.Sub(t0).Nanoseconds()
		e.hmu.Lock()
		e.handlerNs[id] = ns
		if req.URL.Path == "/v1/enqueue" {
			e.enqHandler.record(0, ns)
		} else {
			e.deqHandler.record(0, ns)
		}
		e.hmu.Unlock()
	})
}

func startKlsmd() (*klsmdEnv, error) {
	e := &klsmdEnv{fc: &fsCounters{}, done: make(chan error, 1), handlerNs: make(map[uint64]int64)}
	for i := 0; i < klsmdShards; i++ {
		e.fss = append(e.fss, walfault.NewMemFS(walfault.Faults{}))
	}
	srv, err := server.New(server.Config{
		Shards:       klsmdShards,
		FS:           func(i int) walfault.FS { return countFS{FS: e.fss[i], c: e.fc} },
		QueueOptions: klsmdQueueOptions(),
	})
	if err != nil {
		return nil, err
	}
	e.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	e.addr = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.wrap(srv.Handler())}
	go func() { e.done <- e.hs.Serve(ln) }()
	return e, nil
}

// stopHTTP stops the listener and waits for the serve loop to exit.
func (e *klsmdEnv) stopHTTP() error {
	err := e.hs.Shutdown(context.Background())
	<-e.done
	return err
}

func (e *klsmdEnv) stop() {
	e.stopHTTP()
	e.srv.Shutdown(context.Background())
}

// klsmdClient is one keep-alive loopback connection's paced loop.
type klsmdClient struct {
	idx    int
	e      *klsmdEnv
	hc     *http.Client
	tp     *http.Transport
	rng    *xrand.Source
	next   int // items enqueued so far: the key counter
	ops    int64
	body   []byte
	reqSeq *atomic.Uint64

	enqReqs, deqReqs, failed, shortDeq int64
	ackedKeys, deqKeys                 int64
	bad                                int64
	enqH, deqH, wireH, lagH            segHist
	enqDueH, deqDueH                   segHist       // round trips timed from the due time
	lag                                time.Duration // how late the request in flight was sent
	segKeys                            [segments]int64
	seg                                int // segment of the request in flight
	l                                  *ledger
	seed                               uint64
}

// klsmdStream returns client c's op stream; the workload and the replay
// draw the same ops from it.
func klsmdStream(seed uint64, c int) *xrand.Source {
	return xrand.NewSeeded(seed*2654435761 + uint64(c)*97 + 3)
}

func newClient(e *klsmdEnv, idx int, seed uint64, l *ledger, seq *atomic.Uint64) *klsmdClient {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &klsmdClient{idx: idx, e: e, tp: tp, hc: &http.Client{Transport: tp},
		rng: klsmdStream(seed, idx), seed: seed, l: l, reqSeq: seq}
}

// ledger is the clients' shared view of which keys the server holds: +1
// per acknowledged enqueue, -1 per key a dequeue returned. A dequeue may
// return a key before its enqueuer has read the ack, so counts pass
// through -1; at quiescence every entry must be exactly +1.
type ledger struct {
	mu sync.Mutex
	m  map[uint64]int8
}

func (l *ledger) add(keys []uint64, d int8) {
	l.mu.Lock()
	for _, k := range keys {
		if v := l.m[k] + d; v == 0 {
			delete(l.m, k)
		} else {
			l.m[k] = v
		}
	}
	l.mu.Unlock()
}

func (l *ledger) ack(keys []uint64)  { l.add(keys, 1) }
func (l *ledger) take(keys []uint64) { l.add(keys, -1) }

// post sends body to path and returns the status and response body.
func (c *klsmdClient) post(path string, body []byte, tr *tracer) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.e.addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	var id, spanID uint64
	if tr != nil {
		id = c.reqSeq.Add(1)
		spanID = tr.newID()
		req.Header.Set("X-Bench-Req", strconv.FormatUint(id, 10))
		req.Header.Set("X-Bench-Span", strconv.FormatUint(spanID, 10))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if tr != nil {
		tr.recID(spanID, "client "+path, t0, t1, 0, id)
		c.e.hmu.Lock()
		hns, ok := c.e.handlerNs[id]
		delete(c.e.handlerNs, id)
		c.e.hmu.Unlock()
		if ok {
			c.wireH.record(c.seg, t1.Sub(t0).Nanoseconds()-hns)
		}
	}
	return resp.StatusCode, out, t1.Sub(t0), err
}

// enqueue sends the next n keys of the client's stream to topic.
func (c *klsmdClient) enqueue(topic string, n int, timed bool, tr *tracer) {
	keys := make([]uint64, n)
	b := append(c.body[:0], `{"topic":"`...)
	b = append(b, topic...)
	b = append(b, `","items":[`...)
	for i := range keys {
		keys[i] = klsmdKey(c.seed, c.idx, c.next)
		c.next++
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"key":`...)
		b = strconv.AppendUint(b, keys[i], 10)
		b = append(b, `,"value":"`...)
		b = append(b, klsmdValue(keys[i])...)
		b = append(b, `"}`...)
	}
	b = append(b, "]}"...)
	c.body = b
	c.enqReqs++
	status, _, d, err := c.post("/v1/enqueue", b, tr)
	if err != nil || status != http.StatusOK {
		c.failed++
		return
	}
	if timed {
		c.enqH.record(c.seg, d.Nanoseconds())
		c.enqDueH.record(c.seg, (c.lag + d).Nanoseconds())
	}
	c.ackedKeys += int64(n)
	c.segKeys[c.seg] += int64(n)
	c.l.ack(keys)
}

type dequeueResp struct {
	Items []struct {
		Key   uint64 `json:"key"`
		Value string `json:"value"`
	} `json:"items"`
}

func (c *klsmdClient) dequeue(topic string, timed bool, tr *tracer) {
	b := append(c.body[:0], `{"topic":"`...)
	b = append(b, topic...)
	b = append(b, `","max":`...)
	b = strconv.AppendInt(b, klsmdBatch, 10)
	b = append(b, '}')
	c.body = b
	c.deqReqs++
	status, out, d, err := c.post("/v1/dequeue", b, tr)
	if err != nil || status != http.StatusOK {
		c.failed++
		return
	}
	if timed {
		c.deqH.record(c.seg, d.Nanoseconds())
		c.deqDueH.record(c.seg, (c.lag + d).Nanoseconds())
	}
	var resp dequeueResp
	if err := json.Unmarshal(out, &resp); err != nil {
		c.bad++
		return
	}
	if len(resp.Items) < klsmdBatch {
		c.shortDeq++
	}
	keys := make([]uint64, len(resp.Items))
	for i, it := range resp.Items {
		if it.Value != klsmdValue(it.Key) {
			c.bad++
		}
		keys[i] = it.Key
	}
	c.l.take(keys)
	c.deqKeys += int64(len(keys))
	c.segKeys[c.seg] += int64(len(keys))
}

// prefillKlsmd enqueues the prefill keys over HTTP in large requests.
func prefillKlsmd(e *klsmdEnv, seed uint64, l *ledger) error {
	c := newClient(e, klsmdClients, seed, l, nil)
	defer c.tp.CloseIdleConnections()
	const per = 500
	for i := 0; i < klsmdPrefill/per; i++ {
		c.enqueue(klsmdTopic(i%klsmdTopics), per, false, nil)
	}
	if c.failed > 0 {
		return fmt.Errorf("klsmd: %d prefill requests failed", c.failed)
	}
	return nil
}

// op runs the next op of the client's stream: enqueues and dequeues
// alternate, so the queue's size stays near the prefill instead of
// random-walking; the random word x picks the topic.
func (c *klsmdClient) op(timed bool, tr *tracer) {
	x := c.rng.Uint64()
	topic := klsmdTopic(int(x>>1) % klsmdTopics)
	timed = timed || (x>>8)%klsmdSample == 0
	c.ops++
	if c.ops%2 == 1 {
		c.enqueue(topic, klsmdBatch, timed, tr)
	} else {
		c.dequeue(topic, timed, tr)
	}
}

// klsmdPhase runs the clients' paced loops for d and returns the acked
// keys (enqueued in a 200 plus returned by a dequeue), their rate (the
// median over segments) and the segment clock. Each client sends its n-th
// request at its due time, n request intervals after the phase starts
// (the clients offset by half an interval), or at once when the previous
// response came back late, so each connection has at most one request in
// flight and a stall is caught up afterwards. The lag of each send behind
// its due time goes to lagH, and the round trips are also timed from the
// due time, which counts the wait a stall imposes on the requests behind it.
func klsmdPhase(cs []*klsmdClient, d time.Duration, tr *tracer) (keys int64, rates []float64, clk *segClock) {
	clk = &segClock{}
	var wg sync.WaitGroup
	for _, c := range cs {
		c.enqH, c.deqH, c.wireH, c.lagH, c.segKeys = segHist{}, segHist{}, segHist{}, segHist{}, [segments]int64{}
		c.enqDueH, c.deqDueH = segHist{}, segHist{}
	}
	interval := time.Duration(float64(time.Second) * float64(len(cs)*klsmdBatch) / klsmdRate)
	t0 := time.Now()
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := t0.Add(interval * time.Duration(i) / time.Duration(len(cs)))
			for ; ; due = due.Add(interval) {
				now := time.Now()
				if wait := due.Sub(now); wait > 0 {
					time.Sleep(wait)
					now = time.Now()
				}
				if c.seg = clk.cur(); c.seg >= segments {
					return
				}
				c.lag = now.Sub(due)
				c.lagH.record(c.seg, c.lag.Nanoseconds())
				c.op(tr != nil, tr)
			}
		}()
	}
	clk.run(d)
	wg.Wait()
	var segKeys [segments]int64
	for _, c := range cs {
		for i, n := range c.segKeys {
			segKeys[i] += n
			keys += n
		}
	}
	return keys, clk.rates(&segKeys), clk
}

// klsmdSnap is the server-side counter state at a phase boundary.
type klsmdSnap struct {
	st                                  server.Statsz
	writes, writeBytes, segBytes, syncs int64
	reqs                                int64
}

func snapKlsmd(e *klsmdEnv, cs []*klsmdClient) klsmdSnap {
	s := klsmdSnap{st: e.srv.Stats()}
	s.writes, s.writeBytes, s.segBytes, s.syncs = e.fc.snapshot()
	for _, c := range cs {
		s.reqs += c.enqReqs + c.deqReqs
	}
	return s
}

func klsmdDurable(r *run) {
	l := &ledger{m: make(map[uint64]int8)}
	e := timeSetups(r, func() *klsmdEnv {
		l.m = make(map[uint64]int8)
		e, err := startKlsmd()
		if err != nil {
			r.check(false, "klsmd: start: %v", err)
			return nil
		}
		r.check(prefillKlsmd(e, r.seed, l) == nil, "klsmd: prefill failed")
		return e
	}, func(e *klsmdEnv) {
		if e != nil {
			e.stop()
		}
	})
	if e == nil {
		return
	}
	var seq atomic.Uint64
	var cs []*klsmdClient
	for i := 0; i < klsmdClients; i++ {
		cs = append(cs, newClient(e, i, r.seed, l, &seq))
	}

	d := r.phaseDuration()
	klsmdPhase(cs, warmup, nil)
	var untracedRate float64
	if r.traced {
		_, rs, _ := klsmdPhase(cs, d, nil)
		untracedRate = median(rs)
		e.tr.Store(r.tr)
		e.fc.tr.Store(r.tr)
	}
	e.fc.mu.Lock()
	e.fc.sync, e.fc.walSync = segHist{}, segHist{}
	e.fc.mu.Unlock()
	a := snapKlsmd(e, cs)
	p0 := takeSnap()
	hs := r.sampleHeap(d)
	keys, rates, clk := klsmdPhase(cs, d, r.tr)
	p1 := takeSnap()
	// Counters are read at quiescence and before any shard closes.
	b := snapKlsmd(e, cs)
	e.tr.Store(nil)
	e.fc.tr.Store(nil)
	rate := median(rates)
	r.set("ops_per_s", rate)
	if r.traced {
		r.set("bench.trace_overhead_frac", 1-rate/untracedRate)
	}
	r.phaseProc(p0, p1, keys)
	r.heapLive(hs)

	var enqH, deqH, wireH, lagH, enqDueH, deqDueH segHist
	var enqKeys, deqReqs, shortDeq, bad int64
	for _, c := range cs {
		enqH.add(&c.enqH)
		deqH.add(&c.deqH)
		wireH.add(&c.wireH)
		lagH.add(&c.lagH)
		enqDueH.add(&c.enqDueH)
		deqDueH.add(&c.deqDueH)
		r.attempted += c.enqReqs + c.deqReqs
		r.failed += c.failed
		enqKeys += c.ackedKeys
		deqReqs += c.deqReqs
		shortDeq += c.shortDeq
		bad += c.bad
		c.tp.CloseIdleConnections()
	}
	r.opTiming("insert (enqueue round trip)", &enqH, "insert")
	r.opTiming("delete (dequeue round trip)", &deqH, "delete")
	r.timing("enqueue from its due time", &enqDueH, "klsmd.enqueue_due_p50_us", "klsmd.enqueue_due_p99_us")
	r.timing("dequeue from its due time", &deqDueH, "klsmd.dequeue_due_p50_us", "klsmd.dequeue_due_p99_us")
	r.timing("client lag behind due time", &lagH, "", "klsmd.gen_lag_p99_us")
	r.note("%-30s %.0f acked keys/s of %d offered (median of segments %s over %.3fs), %d of %d requests failed",
		"throughput", rate, klsmdRate, fmtFloats(rates), clk.elapsed().Seconds(), r.failed, r.attempted)
	r.check(bad == 0, "klsmd: %d dequeued items had a corrupt value or body", bad)
	klsmdLayerCounters(r, e, a, b, cs, keys, enqKeys, deqReqs, shortDeq)
	if r.traced {
		r.timing("server wire (client-handler)", &wireH, "server.wire_us_p50", "server.wire_us_p99")
		r.timing("enqueue handler", &e.enqHandler, "server.enqueue_handler_us_p50", "server.enqueue_handler_us_p99")
		r.timing("dequeue handler", &e.deqHandler, "server.dequeue_handler_us_p50", "server.dequeue_handler_us_p99")
	}

	klsmdLiveCheck(r, e, l)
	klsmdRestartCheck(r, e, l)

	rank := klsmdRankReplay(r.seed)
	r.set("rank_err_mean", rank)
	r.note("%-30s %.4f (one-goroutine replay, %d requests)", "rank error mean", rank, klsmdReplayOps)
}

// klsmdLayerCounters derives the per-layer metrics of the server, the WAL,
// the checkpointer and the device boundary from counter deltas.
func klsmdLayerCounters(r *run, e *klsmdEnv, a, b klsmdSnap, cs []*klsmdClient, keys, enqKeys, deqReqs, shortDeq int64) {
	var qa, qb klsm.Stats
	var pa, pb klsm.PersistStats
	var flushes, enq, maxEnq int64
	for i := range b.st.Shards {
		n := b.st.Shards[i].Enqueued - a.st.Shards[i].Enqueued
		enq += n
		maxEnq = max(maxEnq, n)
		addStats(&qa, a.st.Shards[i].Queue)
		addStats(&qb, b.st.Shards[i].Queue)
		addPersist(&pa, a.st.Shards[i].Persist)
		addPersist(&pb, b.st.Shards[i].Persist)
		flushes += b.st.Shards[i].Flushes - a.st.Shards[i].Flushes
	}
	engineLayerCounters(r, qa, qb, (qb.Inserted-qa.Inserted)+(qb.Deleted-qa.Deleted))

	reqs := float64(b.reqs - a.reqs)
	userBytes := float64(enqKeys) * (8 + klsmdValueLen)
	writeBytes := float64(b.writeBytes - a.writeBytes)
	r.set("klsmd.write_amp", ratio(writeBytes, userBytes))
	r.set("wal.bytes_per_key", ratio(float64(pb.WALBytes-pa.WALBytes), float64(keys)))
	r.set("wal.writes_per_fsync", ratio(float64(pb.WALWrites-pa.WALWrites), float64(pb.WALFsyncs-pa.WALFsyncs)))
	r.set("wal.sync_waits_per_request", ratio(float64(pb.WALSyncWaits-pa.WALSyncWaits), reqs))
	ckpts := float64(pb.Checkpoints - pa.Checkpoints)
	r.set("checkpointd.checkpoints", ckpts)
	r.set("checkpointd.ckpt_ms_mean", ratio(float64((pb.CheckpointTime-pa.CheckpointTime).Milliseconds()), ckpts))
	r.set("checkpointd.rewrite_bytes_per_user_byte", ratio(float64(b.segBytes-a.segBytes), userBytes))
	r.set("walfault.write_calls_per_request", ratio(float64(b.writes-a.writes), reqs))
	r.set("walfault.bytes_written_per_key", ratio(writeBytes, float64(keys)))
	r.set("walfault.sync_calls_per_request", ratio(float64(b.syncs-a.syncs), reqs))
	e.fc.mu.Lock()
	r.timing("wal fsync (walfault.Sync)", &e.fc.walSync, "wal.sync_us_p50", "wal.sync_us_p99")
	r.timing("all fsyncs (walfault.Sync)", &e.fc.sync, "walfault.sync_us_p50", "walfault.sync_us_p99")
	e.fc.mu.Unlock()
	r.set("server.keys_per_flush", ratio(float64(enqKeys), float64(flushes)))
	r.set("server.rejected", float64(b.st.Rejected-a.st.Rejected))
	r.set("server.short_dequeue_frac", ratio(float64(shortDeq), float64(deqReqs)))
	r.set("server.max_shard_share", ratio(float64(maxEnq), float64(enq)))
	r.note("%-30s %.0f checkpoints over %d shards, write amplification %.3f", "durability", ckpts, klsmdShards, ratio(writeBytes, userBytes))
}

func addStats(dst *klsm.Stats, s klsm.Stats) {
	dst.Handles += s.Handles
	dst.Inserted += s.Inserted
	dst.Deleted += s.Deleted
	dst.Merges += s.Merges
	dst.Overflows += s.Overflows
	dst.Spies += s.Spies
	dst.SpiedBlocks += s.SpiedBlocks
	dst.SpyCalls += s.SpyCalls
	dst.Consolidates += s.Consolidates
	dst.SharedConsolidatePushes += s.SharedConsolidatePushes
	dst.SharedInsertRetries += s.SharedInsertRetries
	dst.WindowBuilds += s.WindowBuilds
	dst.WindowRepairs += s.WindowRepairs
	dst.WindowItems += s.WindowItems
	dst.BufferFills += s.BufferFills
	dst.BufferPops += s.BufferPops
	dst.BufferFlushes += s.BufferFlushes
	dst.HintSkips += s.HintSkips
	dst.HintSticks += s.HintSticks
}

func addPersist(dst *klsm.PersistStats, s *klsm.PersistStats) {
	if s == nil {
		return
	}
	dst.WALBytes += s.WALBytes
	dst.WALWrites += s.WALWrites
	dst.WALFsyncs += s.WALFsyncs
	dst.WALSyncWaits += s.WALSyncWaits
	dst.Checkpoints += s.Checkpoints
	dst.CheckpointTime += s.CheckpointTime
}

// klsmdLiveCheck checks, at quiescence, the /statsz conservation identity
// and that it agrees with the clients' ledger.
func klsmdLiveCheck(r *run, e *klsmdEnv, l *ledger) {
	resp, err := http.Get(e.addr + "/statsz")
	defer http.DefaultClient.CloseIdleConnections()
	if err != nil {
		r.check(false, "klsmd: GET /statsz: %v", err)
		return
	}
	var st server.Statsz
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		r.check(false, "klsmd: decoding /statsz: %v", err)
		return
	}
	held := 0
	for k, v := range l.m {
		r.check(v == 1, "klsmd: ledger count %d for key %d at quiescence", v, k)
		held++
	}
	r.check(st.Enqueued == st.Dequeued+int64(st.Size),
		"klsmd: /statsz enqueued %d != dequeued %d + size %d", st.Enqueued, st.Dequeued, st.Size)
	r.check(st.Size == held, "klsmd: /statsz size %d, client ledger holds %d keys", st.Size, held)
}

// klsmdRestartCheck shuts the server down, crashes its filesystems (which
// discards anything not fsynced), reopens every shard with klsm.OpenFS and
// checks that the recovered keys are exactly the acked-minus-dequeued keys
// of the ledger. The reopen time is reported as klsm.recover_s.
func klsmdRestartCheck(r *run, e *klsmdEnv, l *ledger) {
	e.stopHTTP()
	r.check(e.srv.Shutdown(context.Background()) == nil, "klsmd: shutdown failed")
	var recover time.Duration
	found := 0
	var dst []klsm.KV[uint64, string]
	for i, fs := range e.fss {
		fs.Crash()
		t0 := time.Now()
		q, err := klsm.OpenFS(fs, fmt.Sprintf("shard-%03d", i), klsm.StringValue{}, klsmdQueueOptions()...)
		recover += time.Since(t0)
		if err != nil {
			r.check(false, "klsmd: reopening shard %d: %v", i, err)
			continue
		}
		h := q.NewHandle()
		for {
			dst = h.DrainMin(dst[:0], 4096)
			for _, kv := range dst {
				v, ok := l.m[kv.Key]
				r.check(ok && v == 1, "klsmd: recovered key %d the ledger does not hold", kv.Key)
				r.check(kv.Value == klsmdValue(kv.Key), "klsmd: recovered key %d has a corrupt value", kv.Key)
				found++
			}
			if len(dst) == 0 {
				break
			}
		}
		h.Close()
		r.check(q.Close() == nil, "klsmd: closing reopened shard %d", i)
	}
	r.check(found == len(l.m), "klsmd: recovered %d keys after restart, ledger holds %d", found, len(l.m))
	r.set("klsm.recover_s", recover.Seconds())
}

// klsmdRankReplay replays the clients' op streams in one goroutine against
// volatile shards placed by the server's own ring. Each shard has the
// handles the server gives it: the flusher's InsertBatch handle, one
// handle that serves dequeues, and the router's idle global handle. It
// returns the mean rank of each dequeued key among its shard's keys.
func klsmdRankReplay(seed uint64) float64 {
	qs := make([]*klsm.Queue[string], klsmdShards)
	ins := make([]*klsm.Handle[string], klsmdShards)
	del := make([]*klsm.Handle[string], klsmdShards)
	trees := make([]*ostat.Tree, klsmdShards)
	for i := range qs {
		qs[i] = klsm.New[string](klsm.WithRelaxation(klsmdK))
		ins[i] = qs[i].NewHandle()
		del[i] = qs[i].NewHandle()
		trees[i] = ostat.New(seed + uint64(i))
	}
	router := server.NewRouter(qs, 0)
	idle := router.NewHandle()
	defer idle.Close()

	insert := func(topic string, keys []uint64) {
		sh := router.Shard(topic)
		vals := make([]string, len(keys))
		for i, k := range keys {
			vals[i] = klsmdValue(k)
			trees[sh].Insert(k)
		}
		ins[sh].InsertBatch(keys, vals)
	}
	const per = 500
	for i := 0; i < klsmdPrefill/per; i++ {
		keys := make([]uint64, per)
		for j := range keys {
			keys[j] = klsmdKey(seed, klsmdClients, i*per+j)
		}
		insert(klsmdTopic(i%klsmdTopics), keys)
	}
	var rngs [klsmdClients]*xrand.Source
	var next [klsmdClients]int
	for c := range rngs {
		rngs[c] = klsmdStream(seed, c)
	}
	coin := xrand.NewSeeded(seed ^ 0x2545f491)
	var rankSum, n int64
	var dst []klsm.KV[uint64, string]
	var ops [klsmdClients]int
	for op := 0; op < klsmdReplayOps; op++ {
		c := coin.Intn(klsmdClients)
		x := rngs[c].Uint64()
		topic := klsmdTopic(int(x>>1) % klsmdTopics)
		if ops[c]++; ops[c]%2 == 1 {
			keys := make([]uint64, klsmdBatch)
			for j := range keys {
				keys[j] = klsmdKey(seed, c, next[c])
				next[c]++
			}
			insert(topic, keys)
			continue
		}
		sh := router.Shard(topic)
		dst = del[sh].DrainMin(dst[:0], klsmdBatch)
		for _, kv := range dst {
			rankSum += int64(trees[sh].Rank(kv.Key))
			trees[sh].Delete(kv.Key)
			n++
		}
	}
	for i := range qs {
		ins[i].Close()
		del[i].Close()
	}
	return ratio(float64(rankSum), float64(n))
}
