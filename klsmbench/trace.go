package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// span is one recorded interval: a call the benchmark made into a layer.
// Spans of one request share req; parent is the id of the causing span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// spanCap bounds the spans kept in memory; later spans are counted as
// dropped. Workloads sample which ops record spans so the kept ones cover
// the whole traced phase.
const spanCap = 1 << 19

// tracer keeps spans in memory, goroutine-safe, and writes them out at
// the end of the run.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	ids     atomic.Uint64
	dropped atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, spanCap)}
}

// newID returns a fresh span id, for spans whose children are recorded
// before the span itself ends.
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// rec records a finished span under a fresh id.
func (t *tracer) rec(name string, start, end time.Time, parent, req uint64) {
	t.recID(t.newID(), name, start, end, parent, req)
}

// recID records a finished span under an id taken from newID.
func (t *tracer) recID(id uint64, name string, start, end time.Time, parent, req uint64) {
	i := t.n.Add(1) - 1
	if i >= spanCap {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
}

func (t *tracer) len() int {
	n := t.n.Load()
	if n > spanCap {
		n = spanCap
	}
	return int(n)
}

// write stores the spans as JSON lines in dir/<base>.spans.jsonl.
func (t *tracer) write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans[:t.len()] {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// procSnap is a process-level snapshot taken at a phase boundary: CPU
// time, allocation and GC counters.
type procSnap struct {
	cpu     time.Duration // user + system
	mallocs uint64
	allocB  uint64
	numGC   uint32
	gcCPU   float64 // seconds of GC CPU
	allCPU  float64 // seconds of all Go CPU
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnap() procSnap {
	var s procSnap
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocB, s.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	metrics.Read(cpuMetrics)
	s.gcCPU = cpuMetrics[0].Value.Float64()
	s.allCPU = cpuMetrics[1].Value.Float64()
	return s
}

// phaseProc reports the process-level metrics of the interval a..b with
// ops successful operations: CPU per op always, runtime counters when the
// run is traced.
func (r *run) phaseProc(a, b procSnap, ops int64) {
	if ops <= 0 {
		ops = 1
	}
	r.set("cpu_us_per_op", float64((b.cpu-a.cpu).Microseconds())/float64(ops))
	r.set("runtime.allocs_per_op", float64(b.mallocs-a.mallocs)/float64(ops))
	r.set("runtime.alloc_bytes_per_op", float64(b.allocB-a.allocB)/float64(ops))
	r.set("runtime.gc_cycles", float64(b.numGC-a.numGC))
	if d := b.allCPU - a.allCPU; d > 0 {
		r.set("runtime.gc_cpu_frac", (b.gcCPU-a.gcCPU)/d)
	}
}

// heapSampler reads the live heap of a timed phase of length d: from its
// own goroutine it forces a GC at the end of each segment, and once more
// when the phase is over. Under engine_uniform's closed loop the heap keeps
// growing at a rate that wanders from run to run: the heap at the end of a
// phase spread 0.10-0.31 (interquartile range over median, sets of ten
// seeds), the median over the segment ends 0.16. The forced GCs
// count in the phase's CPU time, so a traced run, whose runtime.* metrics
// count GC cycles and GC CPU, does not sample (and reports no heap_live_mb).
type heapSampler struct {
	stop chan struct{}
	mbs  chan []float64
}

// sampleHeap starts sampling a phase of length d; nil when the run is
// traced.
func (r *run) sampleHeap(d time.Duration) *heapSampler {
	if r.traced {
		return nil
	}
	h := &heapSampler{stop: make(chan struct{}), mbs: make(chan []float64)}
	go func() {
		var mbs []float64
		tk := time.NewTicker(d / segments)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				mbs = append(mbs, liveHeapMB())
			case <-h.stop:
				h.mbs <- append(mbs, liveHeapMB())
				return
			}
		}
	}()
	return h
}

// heapLive ends the sampling at the end of the phase and reports the median
// of the samples as heap_live_mb.
func (r *run) heapLive(h *heapSampler) {
	if h == nil {
		return
	}
	close(h.stop)
	r.set("heap_live_mb", median(<-h.mbs))
}

// liveHeapMB forces a GC and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// median returns the median of xs, leaving xs as it is.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Each workload builds its set-up at least setupRuns times, and more while
// the builds so far took less than setupTime in all, up to setupMaxRuns;
// setup_s is the median. The first build of a process runs cold and is the
// slowest, so a cheap set-up needs more builds for a steady median.
const (
	setupRuns    = 3
	setupMaxRuns = 15
	setupTime    = time.Second
)

// timeSetups runs build as often as the constants above say, reporting the
// median duration as setup_s; every build but the last is torn down with
// discard.
func timeSetups[T any](r *run, build func() T, discard func(T)) T {
	var ds []float64
	var v T
	var total time.Duration
	for i := 0; i < setupMaxRuns && (i < setupRuns || total < setupTime); i++ {
		if i > 0 {
			discard(v)
			runtime.GC()
		}
		t0 := time.Now()
		v = build()
		d := time.Since(t0)
		total += d
		ds = append(ds, d.Seconds())
	}
	r.set("setup_s", median(ds))
	r.note("%-30s median=%.4fs of %v", "setup", median(ds), fmtFloats(ds))
	return v
}

func fmtFloats(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}
