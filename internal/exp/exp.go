// Package exp is the experiment harness: it regenerates every figure and
// table of the paper's evaluation (§4) on the simulated testbed, plus the
// ablations listed in docs/PERF.md, "Evaluation and ablations". The same
// runners back the testing.B benchmarks in the repository root and the
// cmd/nmbench executable.
package exp

import (
	"fmt"
	"time"

	"pioman/internal/mpi"
	"pioman/internal/ptime"
	"pioman/internal/stats"
	"pioman/internal/telemetry"
	"pioman/internal/topo"
)

// Quick reduces iteration counts for smoke tests and -short runs.
var Quick = false

// Metrics, when non-nil, is passed into the worlds the harness creates
// so their engines, rails and event servers register in it
// (cmd/pingpong's -metrics endpoint reads it live). Metric names are
// keyed by node rank and a registry panics on duplicates, so meter one
// world at a time: set it around a single sweep and clear it after.
var Metrics *telemetry.Registry

// iters returns (warmup, measured) honoring Quick mode.
func iters(warmup, measured int) (int, int) {
	if Quick {
		w, m := warmup/2, measured/5
		if w < 10 {
			w = 10
		}
		if m < 20 {
			m = 20
		}
		return w, m
	}
	return warmup, measured
}

// OverlapPoint is one row of Fig. 5 / Fig. 6: the benchmark time for one
// message size under each engine configuration.
type OverlapPoint struct {
	Size       int
	Reference  time.Duration // no computation (pure communication)
	Sequential time.Duration // original engine: no offload / no progression
	Offload    time.Duration // PIOMan-enabled engine
}

// exchangeOnce runs one Fig. 4 iteration: post the receive, start the
// asynchronous send, compute, then wait for both. Both ranks execute it
// symmetrically, so the measured time is bounded below by
// max(communication, computation) and the baseline degrades toward
// sum(communication, computation).
func exchangeOnce(p *mpi.Proc, peer, tag int, data, buf []byte, comp time.Duration) time.Duration {
	r := p.Irecv(peer, tag, buf)
	sw := ptime.NewStopwatch()
	s := p.Isend(peer, tag, data)
	p.Compute(comp)
	p.WaitSend(s)
	p.WaitRecv(r)
	return sw.Elapsed()
}

// runExchange measures the steady-state Fig. 4 benchmark on world w for
// one message size, returning rank 0's trimmed mean.
func runExchange(w *mpi.World, size int, comp time.Duration, warmup, measured int) time.Duration {
	var result time.Duration
	w.RunAll(func(p *mpi.Proc) {
		peer := 1 - p.Rank()
		data := make([]byte, size)
		buf := make([]byte, size)
		p.Barrier()
		sample := stats.NewSample(measured)
		for it := 0; it < warmup+measured; it++ {
			el := exchangeOnce(p, peer, 1, data, buf, comp)
			if it >= warmup && p.Rank() == 0 {
				sample.Add(el)
			}
		}
		if p.Rank() == 0 {
			result = sample.TrimmedMean(0.1)
		}
	})
	return result
}

// RunExchangeN runs n Fig. 4 iterations on w (two ranks exchanging
// size-byte messages around comp of computation). It is the raw primitive
// the repository-root testing.B benchmarks drive with b.N.
func RunExchangeN(w *mpi.World, size int, comp time.Duration, n int) {
	w.RunAll(func(p *mpi.Proc) {
		peer := 1 - p.Rank()
		data := make([]byte, size)
		buf := make([]byte, size)
		p.Barrier()
		for it := 0; it < n; it++ {
			exchangeOnce(p, peer, 1, data, buf, comp)
		}
	})
}

// overlapSweep runs the three series of an overlap figure over sizes.
// The micro-benchmarks run one application thread per node, so a 4-core
// node preserves the physics (≥3 idle cores to offload to) while halving
// the busy-polling goroutines exposed to host scheduling noise.
func overlapSweep(sizes []int, comp time.Duration, warmup, measured int) []OverlapPoint {
	points := make([]OverlapPoint, len(sizes))
	for i, s := range sizes {
		points[i].Size = s
	}
	small := topo.Machine{Sockets: 1, CoresPerSocket: 4}
	seqCfg := mpi.DefaultSequential(2)
	seqCfg.Machine = small
	mtCfg := mpi.DefaultMultithreaded(2)
	mtCfg.Machine = small
	series := []struct {
		cfg  mpi.Config
		comp time.Duration
		set  func(*OverlapPoint, time.Duration)
	}{
		{seqCfg, 0, func(pt *OverlapPoint, d time.Duration) { pt.Reference = d }},
		{seqCfg, comp, func(pt *OverlapPoint, d time.Duration) { pt.Sequential = d }},
		{mtCfg, comp, func(pt *OverlapPoint, d time.Duration) { pt.Offload = d }},
	}
	for _, se := range series {
		w := mpi.NewWorld(se.cfg)
		for i, size := range sizes {
			se.set(&points[i], runExchange(w, size, se.comp, warmup, measured))
		}
		w.Close()
	}
	return points
}

// Fig5Sizes are the paper's small-message sizes (1K–32K).
func Fig5Sizes() []int { return []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10} }

// RunFig5 reproduces Fig. 5 (§4.1): small-message submission offloading
// with 20 µs of computation.
func RunFig5() []OverlapPoint {
	w, m := iters(20, 200)
	return overlapSweep(Fig5Sizes(), 20*time.Microsecond, w, m)
}

// Fig6Sizes are the paper's rendezvous sweep sizes (8K–512K).
func Fig6Sizes() []int {
	return []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
}

// RunFig6 reproduces Fig. 6 (§4.2): rendezvous handshake progression with
// 100 µs of computation.
func RunFig6() []OverlapPoint {
	w, m := iters(10, 100)
	return overlapSweep(Fig6Sizes(), 100*time.Microsecond, w, m)
}

// FormatOverlap renders a figure's points as the table nmbench prints.
func FormatOverlap(points []OverlapPoint, title string) string {
	out := fmt.Sprintf("%s\n%10s %14s %18s %16s\n", title,
		"size", "reference(µs)", "no-offload(µs)", "offload(µs)")
	for _, pt := range points {
		out += fmt.Sprintf("%10d %14.1f %18.1f %16.1f\n",
			pt.Size, stats.US(pt.Reference), stats.US(pt.Sequential), stats.US(pt.Offload))
	}
	return out
}

// hog occupies one core with computation until stop closes; ablations use
// it to saturate a node's cores.
func hog(p *mpi.Proc, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
			p.Compute(50 * time.Microsecond)
		}
	}
}
