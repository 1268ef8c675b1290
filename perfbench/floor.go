package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/nic"
	"pioman/internal/wire"
)

// floorResult is what the raw endpoints of a lane do without the engine.
type floorResult struct {
	rtt  float64 // p50 round trip of one workload-sized message, µs
	send float64 // p50 time inside fabric.Endpoint.Send, µs
	mbps float64 // one-way bulk bandwidth, MB/s (bond: both rails summed)
}

// floorPhase is how long each raw-fabric measurement runs.
const floorPhase = time.Second

// floorBulkWindow is the number of bulk frames sent per acknowledgement.
const floorBulkWindow = 4

// floor measures the workload's lane on raw endpoints, the shape of
// cmd/pingpong's benchOneRTT: rank 0 sends, a goroutine on rank 1 echoes
// with pooled packets. On the bond lane the round trip runs on the tcp
// rail, which carries the engine's eager traffic, and the bandwidth is
// the sum of both rails'.
func (r *run) floor(t *tracer) (floorResult, error) {
	fabs, rail, second, dir, err := openFabrics(r.wl.lane, r.env)
	defer os.RemoveAll(dir)
	if err != nil {
		return floorResult{}, err
	}
	defer func() {
		for _, f := range fabs {
			f.Close()
		}
	}()
	var fl floorResult
	if fl.rtt, fl.send, err = r.floorRTT(fabs[rail.Name], t); err != nil {
		return fl, err
	}
	for _, p := range []nic.Params{rail, second} {
		if p.Name == "" {
			continue
		}
		// Bulk frames are the rail's MTU at most, as the engine chunks
		// them: udpfab carries one datagram per frame.
		mbps, err := r.floorBulk(fabs[p.Name], min(bulkSize, p.MTU))
		if err != nil {
			return fl, err
		}
		fl.mbps += mbps
	}
	fmt.Printf("floor: raw %s rtt p50 %.2f us, send p50 %.2f us, bulk %.1f MB/s\n", r.wl.lane, fl.rtt, fl.send, fl.mbps)
	return fl, nil
}

// endpoints returns both ranks' endpoints of f.
func endpoints(f fabric.Fabric) (fabric.Endpoint, fabric.Endpoint, error) {
	ep0, err := f.Endpoint(0)
	if err != nil {
		return nil, nil, err
	}
	ep1, err := f.Endpoint(1)
	return ep0, ep1, err
}

func captures(ep fabric.Endpoint) bool {
	c, ok := ep.(fabric.SendCapturer)
	return ok && c.SendCaptures()
}

// rawSend sends payload from ep to dst, recycling the packet when the
// transport captured it.
func rawSend(ep fabric.Endpoint, dst int, seq uint64, payload []byte) error {
	out := fabric.GetPacket()
	out.Kind, out.Src, out.Dst, out.Seq, out.Payload = wire.PktEager, ep.Self(), dst, seq, payload
	err := ep.Send(out)
	if captures(ep) {
		fabric.ReleasePacket(out)
	}
	return err
}

// rawRecv waits up to stallLimit for ep's next packet.
func rawRecv(ep fabric.Endpoint) (*wire.Packet, error) {
	deadline := time.Now().Add(stallLimit)
	for {
		if p := ep.BlockingRecv(100 * time.Millisecond); p != nil {
			return p, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("raw endpoint %d: no packet within %v", ep.Self(), stallLimit)
		}
	}
}

// rawEcho bounces every packet on ep back to its source until quit.
func rawEcho(ep fabric.Endpoint, quit <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-quit:
			return
		default:
		}
		p := ep.BlockingRecv(50 * time.Millisecond)
		if p == nil {
			continue
		}
		err := rawSend(ep, p.Src, p.Seq, p.Payload)
		fabric.ReleasePacket(p)
		if err != nil {
			return
		}
	}
}

// floorRTT times round trips of workload-sized messages and the Send
// calls that start them.
func (r *run) floorRTT(f fabric.Fabric, t *tracer) (rtt, send float64, err error) {
	ep0, ep1, err := endpoints(f)
	if err != nil {
		return 0, 0, err
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go rawEcho(ep1, quit, done)
	defer func() {
		close(quit)
		<-done
	}()
	size := r.wl.size
	msg := make([]byte, size)
	rtts := make([]float64, 0, 1<<18)
	sends := make([]float64, 0, 1<<18)
	start := time.Now()
	warm := start.Add(warmFor(floorPhase))
	for seq := uint64(1); time.Since(start) < floorPhase && len(rtts) < cap(rtts); seq++ {
		r.pat.stamp(msg, seq)
		op := t.begin(spRTT, seq, -1)
		t0 := time.Now()
		s := t.begin(spFabSend, seq, op)
		err := rawSend(ep0, 1, seq, msg)
		t.end(s)
		sent := time.Now()
		if err != nil {
			r.sent(err)
			return 0, 0, err
		}
		s = t.begin(spFabRecv, seq, op)
		p, err := rawRecv(ep0)
		t.end(s)
		t.end(op)
		if err != nil {
			r.recvd(false)
			return 0, 0, err
		}
		r.recvd(r.pat.check(p.Payload, size, seq))
		fabric.ReleasePacket(p)
		if t0.After(warm) {
			rtts = append(rtts, us(time.Since(t0)))
			sends = append(sends, us(sent.Sub(t0)))
		}
	}
	sort.Float64s(rtts)
	sort.Float64s(sends)
	return quantile(rtts, 0.5), quantile(sends, 0.5), nil
}

// floorBulk streams size-byte frames one way in windows of
// floorBulkWindow, each acknowledged by rank 1 after it checked every
// byte, and returns the median segment bandwidth in MB/s.
func (r *run) floorBulk(f fabric.Fabric, size int) (float64, error) {
	ep0, ep1, err := endpoints(f)
	if err != nil {
		return 0, err
	}
	frame := newPattern(int64(size), size)
	errc := make(chan error, 1)
	go func() {
		// Rank 1: check each window's frames, then acknowledge it. The
		// fabric contract does not order frames, so each one is checked
		// against its own header and the window must hold each of its
		// sequence numbers once.
		var ack [hdrBytes]byte
		for base := uint64(1); ; base += floorBulkWindow {
			var seen [floorBulkWindow]bool
			for i := 0; i < floorBulkWindow; i++ {
				p, err := rawRecv(ep1)
				if err != nil {
					errc <- err
					return
				}
				if isStop(p.Payload) {
					fabric.ReleasePacket(p)
					errc <- nil
					return
				}
				seq := seqOf(p.Payload)
				ok := seq >= base && seq < base+floorBulkWindow && !seen[seq-base]
				if ok {
					seen[seq-base] = true
				}
				r.recvd(ok && frame.check(p.Payload, size, seq))
				fabric.ReleasePacket(p)
			}
			if err := rawSend(ep1, 0, base, ack[:]); err != nil {
				errc <- err
				return
			}
		}
	}()
	bufs := makeBufs(floorBulkWindow, size)
	start := time.Now()
	seg := newSegmenter(floorPhase, start)
	var seq uint64
	for time.Since(start) < floorPhase {
		for _, b := range bufs {
			seq++
			frame.stamp(b, seq)
			if err := rawSend(ep0, 1, seq, b); err != nil {
				return 0, err
			}
		}
		p, err := rawRecv(ep0)
		if err != nil {
			return 0, err
		}
		fabric.ReleasePacket(p)
		seg.add(floorBulkWindow, time.Now())
	}
	var stop [hdrBytes]byte
	frame.stamp(stop[:], stopSeq)
	if err := rawSend(ep0, 1, 0, stop[:]); err != nil {
		return 0, err
	}
	if err := <-errc; err != nil {
		return 0, err
	}
	if len(seg.rates) == 0 {
		return 0, fmt.Errorf("raw bulk: no segment completed in %v", floorPhase)
	}
	return median(seg.rates) * float64(size) / 1e6, nil
}
