package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"pioman/internal/fabric/udpfab"
	"pioman/internal/mpi"
	"pioman/internal/telemetry"
)

// traced is the per-layer run: an untraced half on a plain world, then a
// traced half on a world with a telemetry registry attached and a span
// around every call into the mpi layer, then the raw-fabric floor.
func (r *run) traced(spanPath string) (result, error) {
	r.dog = startWatchdog(&r.tally)
	defer r.dog.close()
	if err := r.warmup(); err != nil {
		return result{}, err
	}
	var setups []float64
	half := r.dur / 2
	base, err := r.measure(half, &setups, nil, nil)
	if err != nil {
		return result{}, err
	}

	epoch := time.Now()
	r.tr = [2]*tracer{newTracer(epoch, 1), newTracer(epoch, 2)}
	delta := map[string]float64{}
	var before map[string]float64
	var reg *telemetry.Registry
	var udpRTO, udpWindow float64
	tr, err := r.measure(half, &setups, func() *telemetry.Registry {
		reg = telemetry.NewRegistry()
		return reg
	}, func(bw *benchWorld, after bool) {
		c := readCounters(bw, reg)
		if !after {
			before = c
			return
		}
		for k, v := range c {
			delta[k] += v - before[k]
		}
		udpRTO, udpWindow = udpGauges(bw)
	})
	if err != nil {
		return result{}, err
	}
	tracers := []*tracer{r.tr[0], r.tr[1]}
	r.tr = [2]*tracer{}
	var commOnly, computeOnly float64
	if r.wl.shape == "overlap" {
		bw, err := openWorld(r.wl.lane, r.env, nil)
		if err != nil {
			return result{}, err
		}
		commOnly, computeOnly = r.overlapParts(bw.w)
		bw.close()
	}

	ft := newTracer(epoch, 3)
	fl, err := r.floor(ft)
	if err != nil {
		return result{}, err
	}
	tracers = append(tracers, ft)

	d := func(k string) float64 { return delta[k] }
	msgs := float64(max(tr.msgs, 1))
	perMsg := func(k string) float64 { return d(k) / msgs }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	waits := append(durations(tracers, spWaitSend), durations(tracers, spWaitRecv)...)
	sort.Float64s(waits)
	m := map[string]float64{
		"mpi.isend_us":               quantile(durations(tracers, spIsend), 0.5),
		"mpi.irecv_us":               quantile(durations(tracers, spIrecv), 0.5),
		"mpi.wait_us":                quantile(waits, 0.5),
		"core.passes_per_msg":        perMsg("core.passes"),
		"core.unexpected_share":      ratio(d("core.unexpected"), d("core.recvs")),
		"core.offload_share":         ratio(d("core.offload"), d("core.eager")),
		"core.rdv_replays":           d("core.rdv_replays"),
		"core.rdv_parked":            d("core.rdv_parked"),
		"piom.polls_per_msg":         perMsg("piom.polls"),
		"piom.worked_share":          ratio(d("piom.worked"), d("piom.polls")),
		"piom.wakeups_per_msg":       perMsg("piom.wakeups"),
		"piom.overlap_pct":           0,
		"stack.overhead_us":          0,
		"sched.tasklets_per_msg":     perMsg("sched.tasklets"),
		"sched.switches_per_msg":     perMsg("sched.switches"),
		"sched.idle_polls_per_msg":   perMsg("sched.idle_polls"),
		"nic.batch_occupancy":        ratio(d("nic.frames"), d("nic.batches")),
		"nic.chunks_per_rdv":         ratio(d("nic.data"), d("nic.rts")),
		"nic.stripe_share_shm":       ratio(d("nic.data_bytes.shm"), d("nic.data_bytes")),
		"fabric.rtt_p50_us":          fl.rtt,
		"fabric.send_us":             fl.send,
		"fabric.MBps":                fl.mbps,
		"tcpfab.frames_per_flush":    ratio(d("tcpfab.coalesced_frames"), d("tcpfab.flush_syscalls")),
		"udpfab.retransmits_per_msg": perMsg("udpfab.retransmits"),
		"udpfab.dup_dropped":         d("udpfab.dup_dropped"),
		"udpfab.window_stalls":       d("udpfab.window_stalls"),
		"udpfab.rto_ms":              udpRTO,
		"udpfab.window":              udpWindow,
		"bufpool.miss_share":         ratio(d("bufpool.misses"), d("bufpool.hits")+d("bufpool.misses")),
		"proc.cpu_us_per_msg":        d("proc.cpu_ns") / 1e3 / msgs,
		"proc.allocs_per_msg":        perMsg("proc.mallocs"),
		"proc.gc_cycles":             d("proc.gc"),
		"trace.overhead_pct":         ratio(tr.p50-base.p50, base.p50) * 100,
	}
	switch r.wl.shape {
	case "bulk":
		m["stack.overhead_us"] = 1e6/base.rate - float64(r.wl.size)/fl.mbps
	case "overlap":
		m["stack.overhead_us"] = commOnly - fl.rtt
		m["piom.overlap_pct"] = (commOnly + computeOnly - base.p50) / min(commOnly, computeOnly) * 100
	case "eager":
		m["stack.overhead_us"] = base.p50 - fl.rtt
	}

	n, err := writeChrome(spanPath, tracers, []string{"rank0", "rank1", "raw fabric"})
	if err == nil {
		err = checkChrome(spanPath)
	}
	if err != nil {
		return result{}, fmt.Errorf("span file: %w", err)
	}
	fmt.Printf("traced: op p50 %.2f us vs %.2f us untraced, rate %.0f/s vs %.0f/s: tracing overhead %+.1f%% latency, %+.1f%% rate\n",
		tr.p50, base.p50, tr.rate, base.rate, m["trace.overhead_pct"], ratio(tr.rate-base.rate, base.rate)*100)
	fmt.Printf("traced: wrote %d trace events to %s\n", n, spanPath)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make(map[string]metric, len(m))
	for _, k := range names {
		out[k] = metric{m[k], layerUnit(k)}
		fmt.Printf("  %-28s %14.4f %s\n", k, m[k], layerUnit(k))
	}
	fmt.Printf("checked %d deliveries, %d failed\n", r.tally.n(), r.tally.nf())
	return r.result(out), nil
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "MBps"):
		return "MB/s"
	case strings.Contains(name, "_share"):
		return "ratio"
	case strings.HasSuffix(name, "_per_msg"), strings.HasSuffix(name, "_per_rdv"),
		strings.HasSuffix(name, "_per_flush"), strings.HasSuffix(name, "occupancy"):
		return "per_op"
	}
	return "count"
}

// overlapParts measures the two halves of an overlap iteration on their
// own: the exchange with no compute, and the compute with no exchange.
func (r *run) overlapParts(w *mpi.World) (comm, compute float64) {
	part := min(r.dur/4, 2*time.Second)
	c := r.pingpong(w, r.wl.size, 0, part)
	sort.Float64s(c.lat)
	comm = quantile(c.lat, 0.5)
	w.Node(0).Run(func(p *mpi.Proc) {
		lat := make([]float64, 0, 1<<16)
		for end := time.Now().Add(part / 4); time.Now().Before(end) && len(lat) < cap(lat); {
			t0 := time.Now()
			p.Compute(r.wl.compute)
			lat = append(lat, us(time.Since(t0)))
		}
		compute = median(lat)
	})
	return comm, compute
}

// readCounters reads every layer's public counters of bw, summed over
// both ranks, plus the process's CPU time, allocations and GC cycles.
func readCounters(bw *benchWorld, reg *telemetry.Registry) map[string]float64 {
	c := map[string]float64{}
	add := func(k string, v uint64) { c[k] += float64(v) }
	for rank := 0; rank < bw.w.Size(); rank++ {
		n := bw.w.Node(rank)
		es := n.Eng.Stats()
		add("core.passes", es.ProgressPasses)
		add("core.unexpected", es.Unexpected)
		add("core.recvs", es.RecvsPosted)
		add("core.eager", es.EagerSubmits)
		add("core.offload", es.OffloadSubmits)
		add("core.rdv_replays", es.RdvReplays)
		add("core.rdv_parked", es.RdvParked)
		ps := n.Srv.Stats()
		add("piom.polls", ps.Polls)
		add("piom.worked", ps.Worked)
		add("piom.wakeups", ps.BlockingWakeups)
		ss := n.Sch.Stats()
		add("sched.tasklets", ss.TaskletsRun)
		add("sched.switches", ss.ThreadsRun)
		add("sched.idle_polls", ss.IdlePolls)
		for _, drv := range n.Eng.Rails() {
			ds := drv.Stats()
			add("nic.batches", ds.PollBatches)
			add("nic.frames", ds.PolledFrames)
			add("nic.rts", ds.RTSSent)
			add("nic.data", ds.DataSent)
			add("nic.data_bytes", ds.DataBytes)
			add("nic.data_bytes."+drv.Name(), ds.DataBytes)
		}
	}
	// Transport counters beyond the portable driver stats reach the
	// registry as node<rank>.rail.<name>.<counter>.
	for _, mv := range reg.Snapshot().Metrics {
		switch {
		case mv.Name == "process.bufpool.hits":
			add("bufpool.hits", mv.Value)
		case mv.Name == "process.bufpool.misses":
			add("bufpool.misses", mv.Value)
		case strings.Contains(mv.Name, ".rail."):
			counter := mv.Name[strings.LastIndexByte(mv.Name, '.')+1:]
			switch counter {
			case "coalesced_frames", "flush_syscalls":
				add("tcpfab."+counter, mv.Value)
			case "retransmits", "dup_dropped", "window_stalls":
				add("udpfab."+counter, mv.Value)
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c["proc.cpu_ns"] = float64(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	add("proc.mallocs", ms.Mallocs)
	add("proc.gc", uint64(ms.NumGC))
	return c
}

// udpGauges reads the reliability sublayer's live retransmit timeout
// (ms, largest over ranks) and AIMD window (frames, smallest) of a udp
// lane; zero elsewhere.
func udpGauges(bw *benchWorld) (rtoMs, window float64) {
	f, ok := bw.fabs[laneUDP]
	if !ok {
		return 0, 0
	}
	for rank := 0; rank < 2; rank++ {
		ep, err := f.Endpoint(rank)
		if err != nil {
			continue
		}
		u, ok := ep.(*udpfab.Endpoint)
		if !ok {
			continue
		}
		rtoMs = max(rtoMs, float64(u.PeerRTO(1-rank))/1e6)
		if w := float64(u.PeerWindow(1 - rank)); window == 0 || w < window {
			window = w
		}
	}
	return rtoMs, window
}
