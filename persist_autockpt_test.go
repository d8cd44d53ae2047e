package klsm

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"klsm/internal/segment"
	"klsm/internal/wal"
	"klsm/internal/walfault"
	"klsm/internal/xrand"
)

// fuseDisarmed is the fuse value that never counts down to a kill.
const fuseDisarmed = 1 << 60

// fuseFS wraps a MemFS so a simulated kill stops the whole filesystem, not
// just pre-crash file handles: once the fuse counts down to zero (or kill is
// called), every later operation — including Create and Rename through fresh
// handles — fails with ErrCrashed. Without this, a background checkpoint
// goroutine that outlives the "kill" by a few microseconds could still stage
// files and publish manifests, which no dead process can do. The fuse makes
// the kill land on an exact filesystem-operation boundary, so a sweep of
// fuse values crashes a checkpoint between any two of its steps.
type fuseFS struct {
	m      *walfault.MemFS
	fuse   atomic.Int64
	halted atomic.Bool
}

func newFuseFS(m *walfault.MemFS) *fuseFS {
	f := &fuseFS{m: m}
	f.fuse.Store(fuseDisarmed)
	return f
}

func (f *fuseFS) op() error {
	if f.halted.Load() {
		return walfault.ErrCrashed
	}
	if f.fuse.Add(-1) <= 0 {
		f.kill()
		return walfault.ErrCrashed
	}
	return nil
}

// kill halts the filesystem and crashes the disk image (idempotent).
func (f *fuseFS) kill() {
	if !f.halted.Swap(true) {
		f.m.Crash()
	}
}

// revive re-arms the filesystem for the next process lifetime.
func (f *fuseFS) revive() {
	f.fuse.Store(fuseDisarmed)
	f.halted.Store(false)
}

func (f *fuseFS) Create(name string) (walfault.File, error) {
	if err := f.op(); err != nil {
		return nil, err
	}
	h, err := f.m.Create(name)
	if err != nil {
		return nil, err
	}
	return &fuseFile{File: h, fs: f}, nil
}

func (f *fuseFS) Append(name string) (walfault.File, error) {
	if err := f.op(); err != nil {
		return nil, err
	}
	h, err := f.m.Append(name)
	if err != nil {
		return nil, err
	}
	return &fuseFile{File: h, fs: f}, nil
}

func (f *fuseFS) ReadFile(name string) ([]byte, error) {
	if err := f.op(); err != nil {
		return nil, err
	}
	return f.m.ReadFile(name)
}

func (f *fuseFS) Rename(oldname, newname string) error {
	if err := f.op(); err != nil {
		return err
	}
	return f.m.Rename(oldname, newname)
}

func (f *fuseFS) Remove(name string) error {
	if err := f.op(); err != nil {
		return err
	}
	return f.m.Remove(name)
}

func (f *fuseFS) Truncate(name string, size int64) error {
	if err := f.op(); err != nil {
		return err
	}
	return f.m.Truncate(name, size)
}

func (f *fuseFS) List() ([]string, error) {
	if err := f.op(); err != nil {
		return nil, err
	}
	return f.m.List()
}

func (f *fuseFS) SyncDir() error {
	if err := f.op(); err != nil {
		return err
	}
	return f.m.SyncDir()
}

type fuseFile struct {
	walfault.File
	fs *fuseFS
}

func (h *fuseFile) Write(p []byte) (int, error) {
	if err := h.fs.op(); err != nil {
		return 0, err
	}
	return h.File.Write(p)
}

func (h *fuseFile) Sync() error {
	if err := h.fs.op(); err != nil {
		return err
	}
	return h.File.Sync()
}

// testCrash finishes a simulated kill for a queue whose filesystem has
// already been halted: the scheduler goroutine is stopped (its in-flight
// checkpoint attempt fails fast against the halted FS) and the WAL writer is
// abandoned without flushing, exactly as a real kill drops both.
func (p *persister[V]) testCrash() {
	if p.sched != nil {
		p.sched.Stop()
	}
	p.log.Abandon()
}

// TestAutoCheckpointCrashStress runs the crash-recovery stress cycle with the
// automatic checkpoint scheduler enabled and aggressive triggers, so kills
// land before, during and after scheduled checkpoints (the op-count fuse
// places some kills on exact filesystem-operation boundaries inside a
// checkpoint: after the M1 manifest, between rotation and compaction, mid
// segment write, before the retired-file removals). After every crash it
// asserts, before reopening:
//
//   - every file the on-disk MANIFEST names (live WAL, frozen WALs,
//     segments) still exists — a checkpoint or orphan sweep must never
//     remove a manifest-named file, whatever it was doing when killed;
//   - recovery then restores every acknowledged insert exactly once and
//     resurrects no acknowledged delete (the same ledger rules as
//     TestCrashRecoveryStress).
func TestAutoCheckpointCrashStress(t *testing.T) {
	cycles := 80
	if testing.Short() {
		cycles = 20
	}
	const workers = 4
	raw := walfault.NewMemFS(walfault.Faults{TornGarbleRate: 4, Seed: 77})
	fs := newFuseFS(raw)
	rng := xrand.NewSeeded(7777)
	nextKey := uint64(0)

	opts := []Option{
		WithSyncInterval(5 * time.Millisecond),
		WithAutoCheckpoint(4<<10, 5*time.Millisecond),
	}

	var refusals, frozenRecoveries, fuseKills int
	var autoCkpts, autoFails int64
	expectLive := map[uint64]bool{}
	neverAgain := map[uint64]bool{}

	// repairChain truncates provable mid-log corruption out of every WAL in
	// the manifest chain — the operator procedure when garbled torn bytes
	// land ahead of intact records. Everything dropped was unsynced at the
	// crash, hence unacknowledged.
	repairChain := func(cycle int) {
		m, err := segment.ReadManifest(raw)
		if err != nil {
			t.Fatalf("cycle %d: manifest unreadable during repair: %v", cycle, err)
		}
		repaired := false
		for _, name := range append(append([]string(nil), m.Frozen...), m.WAL) {
			data, err := raw.ReadFile(name)
			if err != nil {
				t.Fatalf("cycle %d: %s unreadable during repair: %v", cycle, name, err)
			}
			res, serr := wal.Scan(data, func(wal.Op) {})
			if serr != nil {
				if terr := raw.Truncate(name, res.GoodLen); terr != nil {
					t.Fatalf("cycle %d: repair truncate %s: %v", cycle, name, terr)
				}
				repaired = true
			}
		}
		if !repaired {
			t.Fatalf("cycle %d: Open refused but rescan found no corruption", cycle)
		}
	}

	for cycle := 0; cycle < cycles; cycle++ {
		fs.revive()
		q, err := openFS[struct{}](fs, "mem", NoValue{}, opts...)
		if err != nil {
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("cycle %d: Open failed with non-corruption error: %v", cycle, err)
			}
			refusals++
			repairChain(cycle)
			q, err = openFS[struct{}](fs, "mem", NoValue{}, opts...)
			if err != nil {
				t.Fatalf("cycle %d: Open after repair: %v", cycle, err)
			}
		}
		if q.PersistStats().Recovery.FrozenWALs > 0 {
			frozenRecoveries++
		}

		// Verify recovered content against the previous cycle's ledger.
		h := q.NewHandle()
		seen := map[uint64]bool{}
		misses := 0
		for misses < 3 {
			k, _, ok := h.TryDeleteMin()
			if !ok {
				if q.Size() == 0 {
					misses++
				}
				continue
			}
			misses = 0
			if seen[k] {
				t.Fatalf("cycle %d: key %d recovered twice (duplicate)", cycle, k)
			}
			if neverAgain[k] {
				t.Fatalf("cycle %d: acked-deleted key %d resurrected", cycle, k)
			}
			seen[k] = true
		}
		for k := range expectLive {
			if !seen[k] {
				t.Fatalf("cycle %d: acked insert %d lost", cycle, k)
			}
		}
		for k := range seen {
			if k >= nextKey {
				t.Fatalf("cycle %d: fabricated key %d (never inserted)", cycle, k)
			}
		}
		h.Close()
		if err := q.Sync(); err != nil {
			t.Fatalf("cycle %d: ack of verification drain: %v", cycle, err)
		}
		for k := range seen {
			neverAgain[k] = true
		}

		// Op phase: concurrent workers while checkpoints fire on size/age
		// triggers. Half the cycles arm the fuse so the kill lands on an
		// exact fs-op boundary; the rest kill on a timer, and every fourth
		// cycle that kills on a timer first waits for a scheduled
		// checkpoint to complete.
		armed := rng.Intn(2) == 0
		if armed {
			fs.fuse.Store(int64(5 + rng.Intn(60)))
		}
		awaitCkpt := !armed && cycle%4 == 3
		keyBase := nextKey
		ledgers := make([]*ledger, workers)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < workers; w++ {
			w := w
			led := newLedger()
			ledgers[w] = led
			wrng := xrand.NewSeeded(uint64(cycle)*977 + uint64(w) + 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				wh := q.NewHandle()
				local := uint64(0)
				for {
					select {
					case <-stop:
						return
					default:
					}
					runtime.Gosched()
					switch r := wrng.Intn(100); {
					case r == 99:
						if err := q.Sync(); err == nil {
							led.ack()
						}
					case r >= 80:
						if k, _, ok := wh.TryDeleteMin(); ok {
							led.pendDel[k] = true
						}
					default:
						key := keyBase + local*workers + uint64(w)
						local++
						wh.Insert(key, struct{}{})
						led.pendIns[key] = true
					}
				}
			}()
		}
		time.Sleep(time.Duration(4000+rng.Intn(16000)) * time.Microsecond)
		if awaitCkpt {
			// The timed kill alone rarely lands after a completed
			// checkpoint: compaction of the growing live set usually
			// outlasts the sleep, and on a loaded machine it always does.
			// Waiting here covers the after-checkpoint regime by
			// construction; the mutators keep running throughout.
			deadline := time.Now().Add(5 * time.Second)
			for q.PersistStats().AutoCheckpoints == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
		if fs.halted.Load() {
			fuseKills++
		}
		fs.kill()
		close(stop)
		wg.Wait()
		st := q.PersistStats()
		autoCkpts += st.AutoCheckpoints
		autoFails += st.AutoCheckpointFailures
		q.p.testCrash()
		nextKey = keyBase + 16*workers*1_000_000

		// Whatever the checkpoint was doing when killed, every file the
		// committed manifest names must still exist.
		m, err := segment.ReadManifest(raw)
		if err != nil {
			t.Fatalf("cycle %d: manifest unreadable after crash: %v", cycle, err)
		}
		names, err := raw.List()
		if err != nil {
			t.Fatalf("cycle %d: List after crash: %v", cycle, err)
		}
		have := map[string]bool{}
		for _, n := range names {
			have[n] = true
		}
		needed := append(append([]string(nil), m.Frozen...), m.WAL)
		for _, ref := range m.Segments {
			needed = append(needed, ref.Name)
		}
		for _, n := range needed {
			if !have[n] {
				t.Fatalf("cycle %d: manifest-named file %s missing after crash (manifest: wal=%s frozen=%v segments=%d)",
					cycle, n, m.WAL, m.Frozen, len(m.Segments))
			}
		}

		// Merge ledgers into next cycle's expectations.
		ackedIns := map[uint64]bool{}
		delAcked := map[uint64]bool{}
		delAny := map[uint64]bool{}
		for _, led := range ledgers {
			for k := range led.ackedIns {
				ackedIns[k] = true
			}
			for k := range led.ackedDel {
				delAcked[k] = true
				delAny[k] = true
			}
			for k := range led.pendDel {
				delAny[k] = true
			}
		}
		expectLive = map[uint64]bool{}
		for k := range ackedIns {
			if !delAny[k] {
				expectLive[k] = true
			}
		}
		for k := range delAcked {
			if expectLive[k] {
				t.Fatalf("cycle %d: key %d both acked-live and acked-deleted", cycle, k)
			}
			neverAgain[k] = true
		}
	}
	t.Logf("%d cycles: %d auto checkpoints (%d failed attempts), %d fuse kills, %d frozen-WAL recoveries, %d corruption refusals",
		cycles, autoCkpts, autoFails, fuseKills, frozenRecoveries, refusals)
	if autoCkpts == 0 && !testing.Short() {
		t.Error("no automatic checkpoint completed across the whole run — triggers never fired")
	}
}

// TestCheckpointKillSweep kills a checkpoint at every filesystem-operation
// boundary in turn: iteration n lets exactly n operations through before the
// crash, so collectively the sweep crashes after the staged-WAL create, mid
// M1 manifest write, before and after the rotation, mid segment write, mid M2
// manifest write, and between each retired-file removal. Every cut must leave
// a directory that (a) still contains every manifest-named file and (b)
// recovers exactly the acknowledged live set — no step of a checkpoint is
// allowed to need a later step for correctness.
func TestCheckpointKillSweep(t *testing.T) {
	const keys = 20
	const deleted = 5
	var failedCuts, frozenCuts, cleanRuns int
	for n := 1; n <= 48; n++ {
		raw := walfault.NewMemFS(walfault.Faults{})
		fs := newFuseFS(raw)
		q, err := openFS[struct{}](fs, "mem", NoValue{})
		if err != nil {
			t.Fatalf("n=%d: open: %v", n, err)
		}
		h := q.NewHandle()
		for i := 0; i < keys; i++ {
			h.Insert(uint64(i), struct{}{})
		}
		for i := 0; i < deleted; i++ {
			if _, _, ok := h.TryDeleteMin(); !ok {
				t.Fatalf("n=%d: queue empty at delete %d", n, i)
			}
		}
		h.Close()
		if err := q.Sync(); err != nil {
			t.Fatalf("n=%d: ack: %v", n, err)
		}

		fs.fuse.Store(int64(n))
		if err := q.p.checkpoint(); err != nil {
			failedCuts++
		} else if !fs.halted.Load() {
			cleanRuns++
		}
		fs.kill()
		q.p.testCrash()

		m, err := segment.ReadManifest(raw)
		if err != nil {
			t.Fatalf("n=%d: manifest unreadable after kill: %v", n, err)
		}
		names, err := raw.List()
		if err != nil {
			t.Fatalf("n=%d: List: %v", n, err)
		}
		have := map[string]bool{}
		for _, name := range names {
			have[name] = true
		}
		needed := append(append([]string(nil), m.Frozen...), m.WAL)
		for _, ref := range m.Segments {
			needed = append(needed, ref.Name)
		}
		for _, name := range needed {
			if !have[name] {
				t.Fatalf("n=%d: manifest-named file %s missing after mid-checkpoint kill", n, name)
			}
		}

		fs.revive()
		q2, err := openFS[struct{}](fs, "mem", NoValue{})
		if err != nil {
			t.Fatalf("n=%d: reopen after mid-checkpoint kill: %v", n, err)
		}
		if q2.PersistStats().Recovery.FrozenWALs > 0 {
			frozenCuts++
		}
		got := q2.DrainMin(nil, keys+1)
		if len(got) != keys-deleted {
			t.Fatalf("n=%d: recovered %d items, want %d (%v)", n, len(got), keys-deleted, got)
		}
		for i, kv := range got {
			if want := uint64(deleted + i); kv.Key != want {
				t.Fatalf("n=%d: item %d = key %d, want %d", n, i, kv.Key, want)
			}
		}
		if err := q2.Close(); err != nil {
			t.Fatalf("n=%d: close: %v", n, err)
		}
	}
	t.Logf("sweep: %d cuts failed the checkpoint, %d recovered through frozen WALs, %d ran to completion",
		failedCuts, frozenCuts, cleanRuns)
	if failedCuts == 0 || frozenCuts == 0 || cleanRuns == 0 {
		t.Errorf("sweep missed a regime: failedCuts=%d frozenCuts=%d cleanRuns=%d — widen the fuse range",
			failedCuts, frozenCuts, cleanRuns)
	}
}
