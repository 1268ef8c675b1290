package main

import (
	"sync/atomic"
	"time"

	"pioman/internal/core"
	"pioman/internal/mpi"
)

// Application tags of the exchanges.
const (
	tagPing = 1
	tagPong = 2
	tagData = 3
	tagAck  = 4
)

// phase is what one measured pass of a shape yields.
type phase struct {
	lat   []float64 // per-operation latency after warm-up, µs
	rates []float64 // per-segment operation rates, 1/s
	msgs  int64     // application messages both ranks sent, warm-up included
}

// segTarget is about how long one rate segment lasts. A segment is a
// fixed number of operations, sized from the warm-up segment's rate, and
// a shape reports the median segment: a descheduling blip spoils one
// segment instead of the whole rate.
const segTarget = 50 * time.Millisecond

// segmenter cuts a closed loop into a warm-up segment, then fixed-size
// segments.
type segmenter struct {
	size  int // operations per segment; 0 during warm-up
	n     int
	t0    time.Time
	warm  time.Duration
	rates []float64
}

// warmFor is the warm-up share of a phase of length d.
func warmFor(d time.Duration) time.Duration {
	return min(d/8, time.Second)
}

func newSegmenter(d time.Duration, now time.Time) *segmenter {
	return &segmenter{t0: now, warm: warmFor(d), rates: make([]float64, 0, 4096)}
}

func (s *segmenter) warming() bool { return s.size == 0 }

// add counts k operations completed at now.
func (s *segmenter) add(k int, now time.Time) {
	s.n += k
	el := now.Sub(s.t0)
	if s.size == 0 {
		if el >= s.warm {
			s.size = max(1, int(float64(s.n)*segTarget.Seconds()/el.Seconds()))
			s.n, s.t0 = 0, now
		}
		return
	}
	if s.n >= s.size {
		s.rates = append(s.rates, float64(s.n)/el.Seconds())
		s.n, s.t0 = 0, now
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// recvd counts one delivered message and whether it checked out.
func (r *run) recvd(ok bool) {
	r.tally.attempt()
	if !ok {
		r.tally.fail()
	}
	r.dog.tick()
}

// sent counts a send that completed with an error as a failure.
func (r *run) sent(err error) {
	if err != nil {
		r.tally.fail()
	}
}

// isStop reports whether a received payload is the end-of-phase marker.
func isStop(b []byte) bool { return len(b) == hdrBytes && seqOf(b) == stopSeq }

// pingpong runs round trips of size-byte messages for d: rank 0 posts the
// receive and the send, computes for compute (the paper's Fig. 4 loop;
// zero for a plain pingpong), then waits for both; rank 1 echoes. Latency
// is the iteration, rate the iterations per second.
func (r *run) pingpong(w *mpi.World, size int, compute, d time.Duration) phase {
	var ph phase
	w.RunAll(func(p *mpi.Proc) {
		if p.Rank() == 1 {
			r.echo(p, size)
			return
		}
		sbuf, rbuf := make([]byte, size), make([]byte, size)
		lat := r.latBuf[:0]
		start := time.Now()
		end := start.Add(d)
		seg := newSegmenter(d, start)
		var msgs int64
		for seq := uint64(1); ; seq++ {
			t0 := time.Now()
			if t0.After(end) {
				r.stopEcho(p, sbuf, rbuf)
				break
			}
			r.pat.stamp(sbuf, seq)
			op := r.beginOp(p, spRTT, seq)
			rr := r.irecv(p, op, seq, 1, tagPong, rbuf)
			sr := r.isend(p, op, seq, 1, tagPing, sbuf)
			if compute > 0 {
				r.compute(p, op, seq, compute)
			}
			r.waitSend(p, op, seq, sr)
			r.waitRecv(p, op, seq, rr)
			now := time.Now()
			r.endOp(p, op)
			r.sent(sr.Err())
			r.recvd(rr.Err() == nil && r.pat.check(rbuf[:rr.Len()], size, seq))
			sr.Release()
			rr.Release()
			if !seg.warming() && len(lat) < cap(lat) {
				lat = append(lat, us(now.Sub(t0)))
			}
			seg.add(1, now)
			msgs += 2
		}
		ph = phase{lat: lat, rates: seg.rates, msgs: msgs}
	})
	return ph
}

// stopEcho ends rank 1's echo loop: a header-only stop marker, echoed.
func (r *run) stopEcho(p *mpi.Proc, sbuf, rbuf []byte) {
	r.pat.stamp(sbuf[:hdrBytes], stopSeq)
	rr := p.Irecv(1, tagPong, rbuf)
	sr := p.Isend(1, tagPing, sbuf[:hdrBytes])
	p.WaitSend(sr)
	p.WaitRecv(rr)
	r.sent(sr.Err())
	r.recvd(rr.Err() == nil && isStop(rbuf[:rr.Len()]))
	sr.Release()
	rr.Release()
}

// echo is rank 1 of pingpong: check each ping, send it back, until the
// stop marker.
func (r *run) echo(p *mpi.Proc, size int) {
	buf := make([]byte, size)
	for seq := uint64(1); ; seq++ {
		op := r.beginOp(p, spEcho, seq)
		rr := r.irecv(p, op, seq, 0, tagPing, buf)
		r.waitRecv(p, op, seq, rr)
		n, err := rr.Len(), rr.Err()
		rr.Release()
		stop := isStop(buf[:n])
		if !stop {
			r.recvd(err == nil && r.pat.check(buf[:n], size, seq))
		}
		sr := r.isend(p, op, seq, 0, tagPong, buf[:n])
		r.waitSend(p, op, seq, sr)
		r.endOp(p, op)
		r.sent(sr.Err())
		sr.Release()
		if stop {
			return
		}
	}
}

// stream runs one-way windows for d: rank 0 posts window sends of size
// bytes and waits for rank 1's acknowledgement of the window. The rate
// is messages per second. With delivery set, rank 1 also times each
// message from the moment rank 0 posted it to its arrival, one way: the
// two ranks share the process clock.
func (r *run) stream(w *mpi.World, size, window int, d time.Duration, delivery bool) phase {
	var ph phase
	var postedAt []atomic.Int64
	if delivery {
		postedAt = make([]atomic.Int64, window)
	}
	start := time.Now()
	w.RunAll(func(p *mpi.Proc) {
		if p.Rank() == 1 {
			ph.lat = r.sink(p, size, window, postedAt, start, warmFor(d))
			return
		}
		bufs := makeBufs(window, size)
		reqs := make([]*core.SendReq, window)
		var ack [hdrBytes]byte
		end := start.Add(d)
		seg := newSegmenter(d, start)
		var seq uint64
		var msgs int64
		for win := uint64(1); ; win++ {
			stop := time.Now().After(end)
			op := r.beginOp(p, spWindow, win)
			ar := r.irecv(p, op, win, 1, tagAck, ack[:])
			for i := range reqs {
				b := bufs[i]
				if stop {
					b = b[:hdrBytes]
					r.pat.stamp(b, stopSeq)
				} else {
					seq++
					r.pat.stamp(b, seq)
				}
				if postedAt != nil {
					postedAt[i].Store(time.Since(start).Nanoseconds())
				}
				reqs[i] = r.isend(p, op, win, 1, tagData, b)
			}
			for _, sr := range reqs {
				r.waitSend(p, op, win, sr)
				r.sent(sr.Err())
				sr.Release()
			}
			r.waitRecv(p, op, win, ar)
			now := time.Now()
			r.endOp(p, op)
			want := seq
			if stop {
				want = stopSeq
			}
			r.recvd(ar.Err() == nil && ar.Len() == hdrBytes && seqOf(ack[:]) == want)
			ar.Release()
			if stop {
				break
			}
			seg.add(window, now)
			msgs += int64(window) + 1
		}
		ph.rates, ph.msgs = seg.rates, msgs
	})
	return ph
}

// sink is rank 1 of stream: pre-post a window of receives, check every
// message, acknowledge the window with its last sequence number. With
// postedAt (nanoseconds since start) it returns each message's one-way
// delivery time, after the warm-up.
func (r *run) sink(p *mpi.Proc, size, window int, postedAt []atomic.Int64, start time.Time, warm time.Duration) []float64 {
	bufs := makeBufs(window, size)
	reqs := make([]*core.RecvReq, window)
	lat := r.latBuf[:0]
	var ack [hdrBytes]byte
	var want uint64
	for win := uint64(1); ; win++ {
		op := r.beginOp(p, spEcho, win)
		for i := range reqs {
			reqs[i] = r.irecv(p, op, win, 0, tagData, bufs[i])
		}
		stop := false
		for i, rr := range reqs {
			r.waitRecv(p, op, win, rr)
			b := bufs[i][:rr.Len()]
			err := rr.Err()
			rr.Release()
			if isStop(b) {
				stop = true
				continue
			}
			want++
			r.recvd(err == nil && r.pat.check(b, size, want))
			if postedAt != nil && len(lat) < cap(lat) {
				if at := time.Since(start); at > warm {
					lat = append(lat, us(at-time.Duration(postedAt[i].Load())))
				}
			}
		}
		last := want
		if stop {
			last = stopSeq
		}
		r.pat.stamp(ack[:], last)
		sr := r.isend(p, op, win, 0, tagAck, ack[:])
		r.waitSend(p, op, win, sr)
		r.endOp(p, op)
		r.sent(sr.Err())
		sr.Release()
		if stop {
			return lat
		}
	}
}

// bulk keeps inflight rendezvous sends of size bytes posted for d; rank 1
// keeps as many receives posted. Latency is one send from post to
// completion, rate the messages per second.
func (r *run) bulk(w *mpi.World, size, inflight int, d time.Duration) phase {
	var ph phase
	w.RunAll(func(p *mpi.Proc) {
		if p.Rank() == 1 {
			r.bulkSink(p, size, inflight)
			return
		}
		bufs := makeBufs(inflight, size)
		reqs := make([]*core.SendReq, inflight)
		ops := make([]int32, inflight)
		seqs := make([]uint64, inflight)
		posted := make([]time.Time, inflight)
		lat := r.latBuf[:0]
		var seq uint64
		post := func(i int) {
			seq++
			r.pat.stamp(bufs[i], seq)
			seqs[i], posted[i] = seq, time.Now()
			ops[i] = r.beginOp(p, spBulk, seq)
			reqs[i] = r.isend(p, ops[i], seq, 1, tagData, bufs[i])
		}
		start := time.Now()
		end := start.Add(d)
		seg := newSegmenter(d, start)
		var msgs int64
		for i := range reqs {
			post(i)
		}
		outstanding := inflight
		for k := 0; outstanding > 0; k++ {
			i := k % inflight
			r.waitSend(p, ops[i], seqs[i], reqs[i])
			now := time.Now()
			r.endOp(p, ops[i])
			r.sent(reqs[i].Err())
			reqs[i].Release()
			if !seg.warming() && len(lat) < cap(lat) {
				lat = append(lat, us(now.Sub(posted[i])))
			}
			seg.add(1, now)
			msgs++
			if now.After(end) {
				outstanding--
			} else {
				post(i)
			}
		}
		// Rank 1 keeps inflight receives posted: one stop marker each.
		for i := range reqs {
			r.pat.stamp(bufs[i][:hdrBytes], stopSeq)
			reqs[i] = p.Isend(1, tagData, bufs[i][:hdrBytes])
		}
		for _, sr := range reqs {
			p.WaitSend(sr)
			r.sent(sr.Err())
			sr.Release()
		}
		ph = phase{lat: lat, rates: seg.rates, msgs: msgs}
	})
	return ph
}

// bulkSink is rank 1 of bulk: keep inflight receives posted, check every
// byte of every message, until a stop marker has filled each receive.
func (r *run) bulkSink(p *mpi.Proc, size, inflight int) {
	bufs := makeBufs(inflight, size)
	reqs := make([]*core.RecvReq, inflight)
	for i := range reqs {
		reqs[i] = p.Irecv(0, tagData, bufs[i])
	}
	var want uint64
	for k, stops := 0, 0; stops < inflight; k++ {
		i := k % inflight
		op := r.beginOp(p, spEcho, want+1)
		r.waitRecv(p, op, want+1, reqs[i])
		b := bufs[i][:reqs[i].Len()]
		err := reqs[i].Err()
		reqs[i].Release()
		if isStop(b) {
			r.endOp(p, op)
			stops++
			continue
		}
		want++
		r.recvd(err == nil && r.pat.check(b, size, want))
		reqs[i] = r.irecv(p, op, want, 0, tagData, bufs[i])
		r.endOp(p, op)
	}
}

func makeBufs(n, size int) [][]byte {
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	return bufs
}
