// Command quality measures delete-min rank error (relaxation quality): for
// each queue, the rank of every returned key among the live keys during a
// sequential replay, tracked exactly with an order-statistic treap.
//
// This validates the paper's central guarantee empirically: the k-LSM's
// observed maximum rank never exceeds k with one handle (ρ = T·k in
// general), while the SprayList and MultiQueue show unbounded tails. It is
// the E5 ablation experiment of DESIGN.md.
//
//	quality -klist 0,4,256,4096 -prefill 10000 -ops 100000
//
// With -json <tag>, the results are additionally written to BENCH_<tag>.json
// (-jsondir redirects the output directory).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"klsm/internal/harness"
	"klsm/internal/pqs"
	"klsm/internal/pqs/klsmq"
	"klsm/internal/pqs/linden"
	"klsm/internal/pqs/multiq"
	"klsm/internal/pqs/spraylist"
)

// rankPoint is one queue's rank-error row as serialized into the
// BENCH_<tag>.json document.
type rankPoint struct {
	Queue    string  `json:"queue"`
	Deletes  int64   `json:"deletes"`
	MaxRank  int     `json:"max_rank"`
	MeanRank float64 `json:"mean_rank"`
	Bound    string  `json:"bound"`
}

// rankFile is the top-level BENCH_<tag>.json document.
type rankFile struct {
	Tag        string      `json:"tag"`
	Kind       string      `json:"kind"`
	Timestamp  string      `json:"timestamp"`
	GoMaxProcs int         `json:"gomaxprocs"`
	NumCPU     int         `json:"numcpu"`
	GitSHA     string      `json:"git_sha,omitempty"`
	Prefill    int         `json:"prefill"`
	Ops        int         `json:"ops"`
	Seed       uint64      `json:"seed"`
	Results    []rankPoint `json:"results"`
}

func main() {
	var (
		klistFlag = flag.String("klist", "0,4,256,4096", "k values for the k-LSM")
		prefill   = flag.Int("prefill", 10_000, "keys inserted before measuring")
		ops       = flag.Int("ops", 100_000, "measured operations (50/50 mix)")
		seed      = flag.Uint64("seed", 7, "workload seed")
		threads   = flag.Int("threads", 8, "design-point T for SprayList/MultiQueue sizing")
		csv       = flag.Bool("csv", false, "emit CSV")
		jsonTag   = flag.String("json", "", "also write the results as BENCH_<tag>.json")
		jsonDir   = flag.String("jsondir", ".", "directory for the -json output file")
	)
	flag.Parse()

	klist, err := harness.ParseIntList(*klistFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quality:", err)
		os.Exit(1)
	}

	type entry struct {
		name  string
		queue pqs.Queue
		bound string
	}
	var entries []entry
	entries = append(entries, entry{"Linden", linden.New(0), "0 (exact)"})
	for _, k := range klist {
		entries = append(entries, entry{
			fmt.Sprintf("kLSM(%d)", k),
			klsmq.New(k),
			fmt.Sprintf("%d (=k, single handle)", k),
		})
	}
	// With local ordering, a single handle always receives its own minimum,
	// so the rank error is exactly 0 — which validates local ordering but
	// hides the k-relaxation. The no-local-ordering rows expose the spread
	// of the uniform selection among the k+1 smallest.
	for _, k := range klist {
		entries = append(entries, entry{
			fmt.Sprintf("kLSM(%d)-nolocal", k),
			klsmq.NewNoLocalOrdering(k),
			fmt.Sprintf("%d (=k)", k),
		})
	}
	entries = append(entries, entry{
		fmt.Sprintf("SprayList(T=%d)", *threads),
		spraylist.New(spraylist.Config{Threads: *threads}),
		"none (probabilistic)",
	})
	entries = append(entries, entry{
		fmt.Sprintf("MultiQ(c=2,T=%d)", *threads),
		multiq.New(multiq.Config{C: 2, Threads: *threads}),
		"none",
	})

	if *csv {
		fmt.Println("queue,deletes,max_rank,mean_rank,bound")
	} else {
		fmt.Printf("# rank error over %d ops after %d prefill (sequential replay)\n", *ops, *prefill)
		fmt.Printf("%-18s %10s %10s %12s  %s\n", "queue", "deletes", "max rank", "mean rank", "worst-case bound")
	}
	out := rankFile{
		Tag:        *jsonTag,
		Kind:       "rank-error",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitSHA:     harness.GitSHA(),
		Prefill:    *prefill,
		Ops:        *ops,
		Seed:       *seed,
	}
	for _, e := range entries {
		res := harness.RankError(e.queue, *prefill, *ops, *seed)
		out.Results = append(out.Results, rankPoint{
			Queue:    e.name,
			Deletes:  res.Deletes,
			MaxRank:  res.MaxRank,
			MeanRank: res.MeanRank,
			Bound:    e.bound,
		})
		if *csv {
			fmt.Printf("%s,%d,%d,%.3f,%q\n", e.name, res.Deletes, res.MaxRank, res.MeanRank, e.bound)
		} else {
			fmt.Printf("%-18s %10d %10d %12.3f  %s\n", e.name, res.Deletes, res.MaxRank, res.MeanRank, e.bound)
		}
	}

	if *jsonTag != "" {
		path := filepath.Join(*jsonDir, "BENCH_"+*jsonTag+".json")
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "quality: marshal:", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "quality:", err)
			os.Exit(1)
		}
		if !*csv {
			fmt.Printf("# wrote %s\n", path)
		}
	}
}
