package main

import (
	"fmt"
	"sort"
	"time"

	"pioman/internal/mpi"
	"pioman/internal/telemetry"
)

// run is one invocation: a workload, its seed and its measured time.
type run struct {
	wl    workload
	dur   time.Duration
	env   *worldEnv
	pat   *pattern
	tally tally
	dog   *watchdog
	tr    [2]*tracer // per rank; nil outside the traced window
	// latBuf holds a phase's latency samples, allocated once so the
	// loops allocate nothing while they measure.
	latBuf []float64
}

func newRun(wl workload, seed int64, dur time.Duration, dir string) *run {
	return &run{
		wl:     wl,
		dur:    dur,
		env:    &worldEnv{dir: dir, seed: seed},
		pat:    newPattern(seed, wl.size),
		latBuf: make([]float64, 0, 1<<21),
	}
}

// summary is a shape's end-to-end figures.
type summary struct {
	p50, p90 float64 // operation latency, µs
	n        int     // latency samples
	rate     float64 // median segment rate, operations/s
	rq1, rq3 float64 // segment rate quartiles
	segs     int
	msgs     int64
}

// rounds is how many fresh worlds a run's measured time is split over.
// Placement on the host (which thread a poller lands on, socket buffer
// and window state) is fixed for the life of a world and moves a whole
// world's figures at once; pooling the samples of several worlds keeps
// that from moving a whole run.
const rounds = 11

// buildsPerRound is how many worlds each round builds and times; the
// last one built carries the round's measurement.
const buildsPerRound = 3

// measure splits d over rounds fresh worlds. Latency percentiles are
// taken per world and the median world's are reported; rate segments
// are pooled across worlds. metrics, when non-nil, is attached to every
// measured world, and observe sees each one before and after its
// measurement.
func (r *run) measure(d time.Duration, setups *[]float64, metrics func() *telemetry.Registry, observe func(bw *benchWorld, after bool)) (summary, error) {
	var s summary
	var p50s, p90s, rates []float64
	for i := 0; i < rounds; i++ {
		for b := 1; b < buildsPerRound; b++ {
			bw, err := buildTimed(r.wl.lane, r.env, nil, setups)
			if err != nil {
				return summary{}, err
			}
			bw.close()
			r.dog.tick()
		}
		var reg *telemetry.Registry
		if metrics != nil {
			reg = metrics()
		}
		bw, err := buildTimed(r.wl.lane, r.env, reg, setups)
		if err != nil {
			return summary{}, err
		}
		r.dog.tick()
		if observe != nil {
			observe(bw, false)
		}
		lat, rt := r.shape(bw.w, d/rounds)
		if observe != nil {
			observe(bw, true)
		}
		bw.close()
		if rt == nil {
			rt = &lat
		} else {
			s.msgs += rt.msgs
		}
		s.msgs += lat.msgs
		s.n += len(lat.lat)
		sort.Float64s(lat.lat)
		p50s = append(p50s, quantile(lat.lat, 0.5))
		p90s = append(p90s, quantile(lat.lat, 0.9))
		rates = append(rates, rt.rates...)
		fmt.Printf("round %d: op p50 %.2f us, p90 %.2f us (%d samples), rate %.0f/s (%d segments)\n",
			i+1, p50s[i], p90s[i], len(lat.lat), median(rt.rates), len(rt.rates))
	}
	if s.n == 0 || len(rates) == 0 {
		return summary{}, fmt.Errorf("%v left no sample after warm-up: run longer", d)
	}
	s.p50, s.p90 = median(p50s), median(p90s)
	s.rate = median(rates)
	s.rq1, s.rq3 = quantile(rates, 0.25), quantile(rates, 0.75)
	s.segs = len(rates)
	return s, nil
}

// shape runs the workload's loop on w for d. It returns the latency
// phase and, when the rate comes from a separate phase, that one.
func (r *run) shape(w *mpi.World, d time.Duration) (phase, *phase) {
	switch r.wl.shape {
	case "eager":
		// Latency and rate on the same path, half the time each.
		lat := r.pingpong(w, r.wl.size, 0, d/2)
		rates := r.stream(w, r.wl.size, streamWindow, d-d/2, false)
		return lat, &rates
	case "lossy":
		return r.stream(w, r.wl.size, streamWindow, d, true), nil
	case "bulk":
		return r.bulk(w, r.wl.size, bulkInFlight, d), nil
	default:
		return r.pingpong(w, r.wl.size, r.wl.compute, d), nil
	}
}

// processWarmup is how long a run drives its workload, unmeasured, before
// the first measured world. The first seconds of a process run slower
// (on bulk-bond, worlds of the first three seconds moved half as many
// bytes as later ones) while the heap, the buffer pool and the
// garbage collector's pacing settle; users of a long-lived world do not
// pay that on every message.
const processWarmup = 2 * time.Second

// warmup runs the workload's shape on a throwaway world.
func (r *run) warmup() error {
	bw, err := openWorld(r.wl.lane, r.env, nil)
	if err != nil {
		return err
	}
	r.shape(bw.w, processWarmup)
	bw.close()
	return nil
}

// plain is the end-to-end run.
func (r *run) plain() (result, error) {
	r.dog = startWatchdog(&r.tally)
	defer r.dog.close()
	if err := r.warmup(); err != nil {
		return result{}, err
	}
	var setups []float64
	s, err := r.measure(r.dur, &setups, nil, nil)
	if err != nil {
		return result{}, err
	}
	r.report(s, setups)
	return r.result(map[string]metric{
		"setup_s":   {median(setups), "s"},
		"op_p50_us": {s.p50, "us"},
		"op_p90_us": {s.p90, "us"},
		"ops_per_s": {s.rate, "1/s"},
	}), nil
}

func (r *run) result(m map[string]metric) result {
	return result{
		Correct:   r.tally.ok() && r.tally.n() > 0,
		Attempted: max(r.tally.n(), 1),
		Failed:    r.tally.nf(),
		Metrics:   m,
	}
}

// report prints the end-to-end figures under the names README.md uses.
func (r *run) report(s summary, setups []float64) {
	lane := r.wl.lane
	mid := median(setups)
	fmt.Printf("setup_s %.4f s (median of %d builds, range %.4f–%.4f)\n", mid, len(setups), setups[0], setups[len(setups)-1])
	switch r.wl.shape {
	case "eager":
		fmt.Printf("rtt_p50_us.%s %.2f us\n", lane, s.p50)
		fmt.Printf("rtt_p90_us.%s %.2f us (%d round trips over %d worlds, %d beyond p90)\n", lane, s.p90, s.n, rounds, s.n/10)
		fmt.Printf("msg_rate.%s %.0f msg/s (median of %d segments, quartiles %.0f–%.0f)\n", lane, s.rate, s.segs, s.rq1, s.rq3)
	case "bulk":
		fmt.Printf("bulk_MBps.%s %.1f MB/s (median of %d segments)\n", lane, s.rate*float64(r.wl.size)/1e6, s.segs)
		fmt.Printf("bulk message latency p50 %.1f us, p90 %.1f us (%d messages)\n", s.p50, s.p90, s.n)
	case "overlap":
		point := "eager"
		if r.wl.size > 32<<10 {
			point = "rdv"
		}
		fmt.Printf("iter_us.%s %.2f us (p90 %.2f us, %d iterations)\n", point, s.p50, s.p90, s.n)
	case "lossy":
		fmt.Printf("msg_rate.%s %.0f msg/s (median of %d segments, quartiles %.0f–%.0f)\n", lane, s.rate, s.segs, s.rq1, s.rq3)
		fmt.Printf("one-way delivery p50 %.1f us, p90 %.1f us (%d messages)\n", s.p50, s.p90, s.n)
	}
	fmt.Printf("checked %d deliveries, %d failed\n", r.tally.n(), r.tally.nf())
}
