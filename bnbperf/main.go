// Command bnbperf is the served-request benchmark. It launches the bnbserve
// binary built from the same checkout, drives it over loopback from this
// one closed-loop load-generator process, verifies every reply word for
// word, and prints one JSON result line.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash bnbperf/run.sh --workload hot-m5 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of a timed
// window against the server. With --trace 1 it carries the per-layer
// metrics: counter deltas read from /v1/stats around the timed window, plus
// an in-process replay of the same seeded request stream through the
// layers' public constructors, timed at each seam (trace.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// workload is one traffic mix, served over the binary TCP front. The two
// mixes stress different layers: fresh-m7 makes every shard request compile
// a new plan, so the core network dominates; hot-m5 replays a cached
// working set, so everything around the core dominates.
type workload struct {
	name      string
	m, shards int
	hotSet    int // >0: draw requests from this many seeded permutations
}

var workloads = []workload{
	{name: "fresh-m7", m: 7, shards: 2},
	// 64 permutations stay well below the 256-entry plan cache per plane.
	{name: "hot-m5", m: 5, shards: 4, hotSet: 64},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// connections is the number of closed-loop route connections: one per CPU
// of the 2-CPU reference host, so the generator never queues requests the
// server could not serve concurrently anyway.
const connections = 2

// metric is one reported value; result is the last line of stdout.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload name: fresh-m7 or hot-m5")
		seed    = flag.Int64("seed", 1, "seed of the generated requests")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		traced  = flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
		server  = flag.String("server", "", "path of the bnbserve binary to launch")
	)
	flag.Parse()
	wl, ok := findWorkload(*wlName)
	if !ok || *server == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "bnbperf: need --server, --workload (fresh-m7, hot-m5), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	res, notes, err := run(runConfig{
		server: *server,
		wl:     wl,
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		traced: *traced == 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bnbperf:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(notes); err != nil {
		fmt.Fprintln(os.Stderr, "bnbperf:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bnbperf:", err)
		os.Exit(1)
	}
}
