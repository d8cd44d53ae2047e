// Command klsmbench is the repository benchmark: it runs one workload against
// the k-LSM stack, checks the outputs, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones (e2eDefs); with
// --trace 1 they are the per-layer ones (layerDefs), from a traced run that
// also records spans and runs the layer ladder (ladder.go). The program
// exits non-zero when a correctness check fails.
//
// Usage, from the repository root (run.sh builds the program first):
//
//	bash klsmbench/run.sh --workload engine_uniform --seed 1 --seconds 20 --trace 0
//
// # Workloads
//
// Each generates its inputs from --seed, builds its set-up three times or,
// when that is cheap, more (setup_s is the median; see timeSetups), runs
// one untimed warm-up second, then one timed
// phase of --seconds (a traced run: an untraced and a traced phase of half
// that each). A phase is cut into segments; rates and latency quantiles are
// the median over segments.
//
//   - engine_uniform: embedded klsm.Queue, k=256, two goroutines each owning
//     a Handle, 10^6 prefilled keys, closed-loop 50/50 Insert/TryDeleteMin
//     (the paper's Fig. 3 mix; keys follow the hold model, see engineKey).
//   - klsmd_durable: in-process klsmd server (internal/server), S=4, k=256,
//     WAL-backed shards on walfault.MemFS with 2 ms group commit and
//     auto-checkpoints, driven over two keep-alive loopback HTTP connections
//     alternating enqueue and dequeue of 16 keys over 16 topics, prefilled
//     with 2·10^4 keys. The load is paced at a fixed offered rate of
//     6.4·10^4 keys/s, each connection with at most one request in flight
//     (see klsmdRate for why it is not a closed loop).
//   - timer_churn: timerq, k=256, 5·10^5 long-lived pending timers, an
//     open-loop generator issuing Schedule and Cancel (2:1) at a fixed rate
//     with short deadlines, and one goroutine calling Expire every 1 ms.
//
// # End-to-end metrics
//
//   - setup_s: building the set-up (queue or server creation plus prefill).
//   - ops_per_s: successful ops per second. klsmd: acked keys (keys in a
//     200 enqueue plus keys a dequeue returned). timers: Schedule, Cancel
//     and fires. On the two paced workloads it stays at the offered rate
//     while the program keeps up and falls below it when it does not.
//   - insert_iqm_us: interquartile mean (the mean of the calls between the
//     25th and 75th percentiles, median over segments) of Handle.Insert;
//     of the enqueue round trip to a 200; of the Schedule call.
//   - delete_iqm_us: the same of TryDeleteMin; of the dequeue round trip;
//     of the Cancel call.
//   - rank_err_mean: mean true rank of the deleted (fired) keys in a
//     deterministic one-goroutine replay of the workload's op streams,
//     measured against an order-statistic tree (internal/ostat).
//   - heap_live_mb: live heap after a forced GC, median over the ends of
//     the phase's segments (see heapSampler).
//   - cpu_us_per_op: process user+system CPU in the phase per op, client
//     included.
//
// The p50 and p99 of the same two latencies are printed on every run and
// reported as bench.insert_p50_us, bench.delete_p50_us, bench.insert_p99_us
// and bench.delete_p99_us, but not gated. The p99's run-to-run spread
// (interquartile range over median, five seeds, 2-CPU container) was
// 0.15-0.35, wider than any bound a gate may set. The p50 is steady except
// on engine_uniform's TryDeleteMin, whose latencies fall about half and
// half into a ~80 ns and a ~125 ns mode: its median jumped between the two
// from segment to segment and run to run (spread 0.14-0.30 over six seeds),
// while its interquartile mean, which moves with the modes' weights, spread
// 0.03-0.04; on every other gated latency the two figures spread alike.
//
// The two paced workloads also time their calls from their due times,
// which counts the wait a stall imposes on the calls queued behind it;
// those figures, the generator's lag and the fire lateness are per-layer
// metrics (timerq.*, klsmd.*). Their median is the Go runtime's timer
// wake-up under load (0.6-1 ms) more than the calls themselves, and on
// timer_churn it moved by up to 0.23 between sets of runs as the machine's
// load changed.
//
// Failed or refused ops (spurious TryDeleteMin misses, non-2xx responses,
// transport errors, Schedule errors) are the result's "failed" count.
// Figures that exist on one workload only (fire lateness, generator lag,
// footprint ratio, write amplification) are printed on every run and
// reported as per-layer metrics.
//
// The benchmark sees the layers only from outside: it times calls into
// their public functions and reads their public counters (klsm.Stats,
// klsm.PersistStats, server.Statsz, timerq.Stats), always before any
// handle closes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// e2eDefs are the end-to-end metrics, reported on every workload with
// --trace 0. The package comment gives their meaning per workload.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"insert_iqm_us", "us"},
	{"delete_iqm_us", "us"},
	{"rank_err_mean", "rank"},
	{"heap_live_mb", "MB"},
	{"cpu_us_per_op", "us"},
}

// layerDefs are the per-layer metrics, reported on every workload with
// --trace 1. A layer the workload does not exercise reports 0.
var layerDefs = []metricDef{
	// The p50 and p99 of the end-to-end insert and delete latencies:
	// reported, not gated (see the package comment).
	{"bench.insert_p50_us", "us"},
	{"bench.delete_p50_us", "us"},
	{"bench.insert_p99_us", "us"},
	{"bench.delete_p99_us", "us"},
	// Workload-specific end-to-end figures that exist on one workload only.
	{"klsmd.write_amp", "ratio"},
	{"klsmd.gen_lag_p99_us", "us"},
	{"klsmd.enqueue_due_p50_us", "us"},
	{"klsmd.enqueue_due_p99_us", "us"},
	{"klsmd.dequeue_due_p50_us", "us"},
	{"klsmd.dequeue_due_p99_us", "us"},
	{"timerq.fire_late_p50_us", "us"},
	{"timerq.fire_late_p99_us", "us"},
	{"timerq.gen_lag_p99_us", "us"},
	{"timerq.schedule_due_p50_us", "us"},
	{"timerq.schedule_due_p99_us", "us"},
	{"timerq.cancel_due_p50_us", "us"},
	{"timerq.cancel_due_p99_us", "us"},
	{"timerq.footprint_ratio", "ratio"},
	{"bench.failed_frac", "ratio"},
	// 1 - traced/untraced ops_per_s; on the paced workloads it shows only
	// whether tracing made the load fall behind.
	{"bench.trace_overhead_frac", "ratio"},

	{"block.merges_per_op", "count"},
	{"block.merge_ns_per_item", "ns"},

	{"distlsm.insert_ns", "ns"},
	{"distlsm.findmin_ns", "ns"},
	{"distlsm.overflows_per_op", "count"},
	{"distlsm.consolidates_per_op", "count"},
	{"distlsm.spy_calls_per_delete", "count"},
	{"distlsm.spied_blocks_per_spy", "count"},

	{"sharedlsm.insert_ns", "ns"},
	{"sharedlsm.findmin_ns", "ns"},
	{"sharedlsm.insert_retries_per_overflow", "ratio"},
	{"sharedlsm.consolidate_pushes_per_op", "count"},

	{"core.insert_ns", "ns"},
	{"core.deletemin_ns", "ns"},
	{"core.window_items_per_delete", "count"},
	{"core.window_builds_per_delete", "count"},
	{"core.buffer_pop_ratio", "ratio"},
	{"core.buffer_flushes_per_fill", "ratio"},
	{"core.hint_skip_ratio", "ratio"},

	{"klsm.handle_insert_ns", "ns"},
	{"klsm.handle_deletemin_ns", "ns"},
	{"klsm.queue_insert_ns", "ns"},
	{"klsm.queue_deletemin_ns", "ns"},
	{"klsm.insert_batch_ns_per_key", "ns"},
	{"klsm.drain_min_ns_per_key", "ns"},
	{"klsm.timekey_insert_ns", "ns"},
	{"klsm.handles", "count"},
	{"klsm.recover_s", "s"},

	{"wal.append_ns", "ns"},
	{"wal.sync_us_p50", "us"},
	{"wal.sync_us_p99", "us"},
	{"wal.bytes_per_key", "B"},
	{"wal.writes_per_fsync", "count"},
	{"wal.sync_waits_per_request", "count"},
	{"checkpointd.checkpoints", "count"},
	{"checkpointd.ckpt_ms_mean", "ms"},
	{"checkpointd.rewrite_bytes_per_user_byte", "ratio"},

	{"walfault.write_calls_per_request", "count"},
	{"walfault.bytes_written_per_key", "B"},
	{"walfault.sync_calls_per_request", "count"},
	{"walfault.sync_us_p50", "us"},
	{"walfault.sync_us_p99", "us"},

	{"server.enqueue_handler_us_p50", "us"},
	{"server.enqueue_handler_us_p99", "us"},
	{"server.dequeue_handler_us_p50", "us"},
	{"server.dequeue_handler_us_p99", "us"},
	{"server.wire_us_p50", "us"},
	{"server.wire_us_p99", "us"},
	{"server.keys_per_flush", "count"},
	{"server.rejected", "count"},
	{"server.short_dequeue_frac", "ratio"},
	// The largest shard's share of the keys enqueued in the phase; 1/S when
	// the ring spreads the workload's topics evenly.
	{"server.max_shard_share", "ratio"},
	{"server.router_insert_batch_ns_per_key", "ns"},
	{"server.inproc_request_us", "us"},

	{"timerq.expire_us_p50", "us"},
	{"timerq.expire_us_p99", "us"},
	{"timerq.fired_per_expire", "count"},
	{"timerq.compactions", "count"},
	{"timerq.garbage_ratio", "ratio"},
	{"timerq.cancel_hit_ratio", "ratio"},

	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
}

// ladderRungs names the ladder's rungs bottom to top; each reports its
// per-key cost and its self time (its cost minus the rung below).
var ladderRungs = []string{
	"block", "distlsm", "sharedlsm", "core", "klsm_handle",
	"klsm_queue", "klsm_open", "router", "servehttp", "loopback",
}

func init() {
	for _, r := range ladderRungs {
		layerDefs = append(layerDefs,
			metricDef{"ladder." + r + ".ns_per_key", "ns"},
			metricDef{"ladder." + r + ".self_ns_per_key", "ns"})
	}
}

// run is one benchmark invocation: its settings, the metric values it has
// measured so far, and the correctness failures it found.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	tr       *tracer // nil when untraced

	vals      map[string]float64
	attempted int64
	failed    int64
	errs      []string
	notes     []string // human-readable lines printed before the result
}

func (r *run) set(name string, v float64) {
	if r.vals == nil {
		r.vals = make(map[string]float64)
	}
	r.vals[name] = v
}

// check records a correctness failure when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// note adds a human-readable line to the report.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// opTiming reports the end-to-end latency of one kind of op, insert or
// delete: its interquartile mean, gated, and its p50 and p99, per-layer.
func (r *run) opTiming(label string, h *segHist, op string) {
	r.timing(label, h, "bench."+op+"_p50_us", "bench."+op+"_p99_us")
	r.set(op+"_iqm_us", h.midMean()/1e3)
}

// timing reports one latency as p50/p99 (in µs, each the median over
// the phase's segments) with its sample count, storing the quantiles under
// p50name and p99name unless those are empty.
func (r *run) timing(label string, h *segHist, p50name, p99name string) {
	p50, p99 := h.quantile(0.5)/1e3, h.quantile(0.99)/1e3
	if p50name != "" {
		r.set(p50name, p50)
	}
	if p99name != "" {
		r.set(p99name, p99)
	}
	r.note("%-30s p50=%.3fus p90=%.3fus p99=%.3fus iqm=%.3fus n=%d",
		label, p50, h.quantile(0.9)/1e3, p99, h.midMean()/1e3, h.count())
}

// warmup is how long each workload runs untimed between its set-up and its
// first timed phase, so pools, buffers and the steady-state structure are in
// place before anything is measured.
const warmup = time.Second

// phaseDuration is the length of one timed phase: the whole run untraced;
// half of it for each of the untraced and traced phases of a traced run.
func (r *run) phaseDuration() time.Duration {
	d := time.Duration(r.seconds * float64(time.Second))
	if r.traced {
		d /= 2
	}
	return d
}

var workloads = map[string]func(*run){
	"engine_uniform": engineUniform,
	"klsmd_durable":  klsmdDurable,
	"timer_churn":    timerChurn,
}

func main() {
	workload := flag.String("workload", "", "workload: engine_uniform, klsmd_durable or timer_churn")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics and writing spans")
	traceDir := flag.String("trace-dir", ".bench_build/klsmbench-trace", "directory the traced run writes its spans to")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "klsmbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(2)
	r := &run{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1}
	if r.traced {
		r.tr = newTracer()
	}
	header(r)

	fn(r)
	if r.attempted > 0 {
		r.set("bench.failed_frac", float64(r.failed)/float64(r.attempted))
	}
	if r.traced {
		ladder(r)
		path, err := r.tr.write(*traceDir, fmt.Sprintf("%s-seed%d", r.workload, r.seed))
		r.check(err == nil, "writing spans: %v", err)
		r.note("spans: %d recorded, %d dropped, written to %s", r.tr.len(), r.tr.dropped.Load(), path)
	}
	os.Exit(report(r))
}

// header prints the run header: everything needed to compare two results.
func header(r *run) {
	sha := os.Getenv("KLSMBENCH_GIT_SHA")
	if sha == "" {
		sha = "unknown"
	}
	h := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"trace":      r.traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go_version": runtime.Version(),
		"git_sha":    sha,
		"data_fs":    dataFSDescription,
		"flush":      flushPolicy,
	}
	b, _ := json.Marshal(h) // a map of plain values always marshals
	fmt.Printf("header %s\n", b)
}

// report prints the human-readable report and the result line, returning
// the exit code.
func report(r *run) int {
	defs := e2eDefs
	if r.traced {
		defs = layerDefs
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	known := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), e2eDefs...), layerDefs...) {
		known[d.name] = true
	}
	for n := range r.vals {
		if !known[n] {
			r.errs = append(r.errs, "unregistered metric "+n)
		}
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		// A per-layer metric of a layer the workload does not exercise is
		// absent and reports 0; an end-to-end one must be measured.
		v, ok := r.vals[d.name]
		if !r.traced && (!ok || math.IsNaN(v) || math.IsInf(v, 0)) {
			r.errs = append(r.errs, fmt.Sprintf("metric %s not measured (%v)", d.name, v))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Printf("metric %-44s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, e := range r.errs {
		fmt.Printf("CHECK FAILED: %s\n", e)
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	out := map[string]any{
		"correct":   len(r.errs) == 0,
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "klsmbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if len(r.errs) > 0 {
		fmt.Fprintln(os.Stderr, "klsmbench: correctness checks failed:\n  "+strings.Join(r.errs, "\n  "))
		return 1
	}
	return 0
}
