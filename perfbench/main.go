// Command perfbench is the repository's end-to-end benchmark: two
// in-process ranks exchanging messages through the whole stack (mpi →
// core → piom/sched → nic → a real fabric) in closed loops, every
// payload checked. It is normally driven by run.py, which builds it:
//
//	python3 perfbench/run.py --workload eager-shm --seed 1 --seconds 10 --trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it also
// measures a traced repeat, reads every layer's counters and a raw-fabric
// floor, prints the per-layer metrics and writes the spans as a Chrome
// trace. The last line of standard output is always the JSON result.
// See README.md for the workloads, metrics and layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// workload is one named closed loop over one lane.
type workload struct {
	name  string
	lane  string
	shape string // "eager", "bulk", "overlap" or "lossy"
	// size is the payload of one message; compute the application
	// phase of one overlap iteration.
	size    int
	compute time.Duration
}

// Message sizes of the shapes.
const (
	eagerSize = 64
	bulkSize  = 1 << 20
	// streamWindow is the eager stream's sends per acknowledgement.
	streamWindow = 64
	// bulkInFlight is the number of rendezvous sends kept posted.
	bulkInFlight = 4
)

var workloads = []workload{
	{name: "eager-shm", lane: laneShm, shape: "eager", size: eagerSize},
	{name: "eager-tcp", lane: laneTCP, shape: "eager", size: eagerSize},
	{name: "bulk-shm", lane: laneShm, shape: "bulk", size: bulkSize},
	{name: "bulk-tcp", lane: laneTCP, shape: "bulk", size: bulkSize},
	{name: "bulk-bond", lane: laneBond, shape: "bulk", size: bulkSize},
	{name: "overlap-eager", lane: laneShm, shape: "overlap", size: 16 << 10, compute: 20 * time.Microsecond},
	{name: "overlap-rdv", lane: laneShm, shape: "overlap", size: 64 << 10, compute: 100 * time.Microsecond},
	{name: "lossy-udp", lane: laneUDP, shape: "lossy", size: eagerSize},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed of the payload patterns and the chaos source")
	seconds := flag.Float64("seconds", 10, "measured seconds of the run")
	traced := flag.Int("trace", 0, "1: add the traced repeat and print the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for ring files and the span file")
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds > 0, -trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(*out, "run"))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch directory: %v\n", err)
		os.Exit(1)
	}
	host := fingerprint(*seed)
	fmt.Printf("perfbench: workload %s seed %d seconds %g trace %d\n", wl.name, *seed, *seconds, *traced)
	fmt.Printf("perfbench: host %s\n", host)

	r := newRun(wl, *seed, time.Duration(*seconds*float64(time.Second)), dir)
	var res result
	if *traced == 1 {
		res, err = r.traced(filepath.Join(*out, "spans", wl.name+".json"))
	} else {
		res, err = r.plain()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	emit(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// emit prints res as the final JSON line.
func emit(res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// stallLimit is the bounded wait: a run in which no operation completes
// for this long has hung, counts one timeout failure and ends.
const stallLimit = 20 * time.Second

// watchdog ends a run whose operations stopped completing. A request
// that never completes cannot be abandoned from the waiting thread, so
// the watchdog reports the failure and exits the process.
type watchdog struct {
	last atomic.Int64 // unix nanos of the last completed operation
	stop chan struct{}
	done chan struct{}
}

func startWatchdog(t *tally) *watchdog {
	d := &watchdog{stop: make(chan struct{}), done: make(chan struct{})}
	d.tick()
	go func() {
		defer close(d.done)
		tk := time.NewTicker(time.Second)
		defer tk.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-tk.C:
				if time.Since(time.Unix(0, d.last.Load())) > stallLimit {
					fmt.Fprintf(os.Stderr, "perfbench: no operation completed for %v: timeout\n", stallLimit)
					t.fail()
					emit(result{Correct: false, Attempted: max(t.attempted.Load(), 1), Failed: t.failed.Load(), Metrics: map[string]metric{}})
					os.Exit(1)
				}
			}
		}
	}()
	return d
}

// tick records that an operation completed.
func (d *watchdog) tick() { d.last.Store(time.Now().UnixNano()) }

// close stops the watchdog and waits for it.
func (d *watchdog) close() {
	close(d.stop)
	<-d.done
}

// tally counts operations attempted and failed across both ranks.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

func (t *tally) attempt()  { t.attempted.Add(1) }
func (t *tally) fail()     { t.failed.Add(1) }
func (t *tally) ok() bool  { return t.failed.Load() == 0 }
func (t *tally) n() int64  { return t.attempted.Load() }
func (t *tally) nf() int64 { return t.failed.Load() }

// quantile returns the q-quantile of sorted xs (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts xs in place and returns its middle value.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}
