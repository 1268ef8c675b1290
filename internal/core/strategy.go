package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"pioman/internal/sync2"
)

// pack is one eager send waiting in the optimizer's queue (the "waiting
// packs" layer of Fig. 3). Packs are engine-internal — allocated in
// Isend, consumed in submitTrain — so they recycle through a freelist:
// one fewer allocation per eager send on the steady-state path.
type pack struct {
	req *SendReq
}

// packPool recycles packs; see getPack/putPack.
var packPool = sync.Pool{New: func() any { return new(pack) }}

// getPack draws a pack for r from the freelist.
func getPack(r *SendReq) *pack {
	p := packPool.Get().(*pack)
	p.req = r
	return p
}

// putPack hands a consumed pack back. The caller must have dropped the
// pack from every queue and train first.
func putPack(p *pack) {
	p.req = nil
	packPool.Put(p)
}

// strategy is the optimizer of Fig. 3: it owns the queue of waiting packs
// and decides what to put on the wire next. Implementations are called
// under the engine's qlock and must therefore be allocation-light and
// non-blocking.
type strategy interface {
	// Enqueue adds a ready eager pack.
	Enqueue(p *pack)
	// Head returns the next pack to leave the queue without removing it,
	// or nil when empty. The engine peeks it to check whether the
	// destination rail can accept a submission before dequeuing.
	Head() *pack
	// Dequeue appends the next train to submit — one or more packs for
	// the same destination — to into (reset to length zero first) and
	// returns it, or nil when the queue is empty. The caller owns the
	// returned slice until the next Dequeue, so a reused train buffer
	// makes steady-state submission allocation-free. mtuOf reports the
	// payload budget of the rail serving a destination.
	Dequeue(mtuOf func(dst int) int, into []*pack) []*pack
	// Pending reports whether packs are queued.
	Pending() bool
}

// newStrategy resolves a strategy name ("" defaults to fifo). Anything
// it does not know is a hard error: a misspelled strategy must fail
// loudly at engine construction, not run the whole experiment on a
// silently substituted policy. "multirail" queues eager packs in plain
// post order — small messages do not benefit from splitting, the
// per-rail handshakes would dominate — and its distinguishing policy,
// striping rendezvous data across rails, is the engine's (see
// Engine.stripe).
func newStrategy(name string) strategy {
	switch name {
	case "", "fifo", "multirail":
		return &fifoStrategy{}
	case "aggreg":
		return &aggrStrategy{}
	default:
		panic(fmt.Sprintf("core: unknown strategy %q", name))
	}
}

// fifoStrategy submits packs one at a time in post order.
type fifoStrategy struct {
	q sync2.Queue[*pack]
}

func (s *fifoStrategy) Enqueue(p *pack) { s.q.Push(p) }
func (s *fifoStrategy) Head() *pack     { return s.q.Head() }
func (s *fifoStrategy) Pending() bool   { return s.q.Len() > 0 }

func (s *fifoStrategy) Dequeue(mtuOf func(int) int, into []*pack) []*pack {
	p := s.q.Pop()
	if p == nil {
		return nil
	}
	return append(into[:0], p)
}

// aggrStrategy coalesces consecutive same-destination packs into one wire
// packet up to the rail MTU — the data-aggregation optimization of [2].
// Taking only a contiguous same-destination run preserves global post
// order, so per-(src,tag) FIFO matching is unaffected. It queues like
// fifoStrategy and differs only in what one Dequeue takes.
type aggrStrategy struct {
	fifoStrategy
}

func (s *aggrStrategy) Dequeue(mtuOf func(int) int, into []*pack) []*pack {
	hd := s.q.Pop()
	if hd == nil {
		return nil
	}
	dst := hd.req.dst
	budget := mtuOf(dst) - aggrEntryOverhead - len(hd.req.data)
	train := append(into[:0], hd)
	for p := s.q.Head(); p != nil; p = s.q.Head() {
		need := aggrEntryOverhead + len(p.req.data)
		if p.req.dst != dst || need > budget {
			break
		}
		train = append(train, s.q.Pop())
		budget -= need
	}
	return train
}

// Aggregated train wire format: repeated entries of
// [tag int64][seq uint64][len uint64][payload].
const aggrEntryOverhead = 24

// aggrSub is one decoded entry of an aggregated train.
type aggrSub struct {
	tag  int
	seq  uint64
	data []byte
}

// encodeAggr serializes a train into one payload.
func encodeAggr(train []*pack) []byte {
	total := 0
	for _, p := range train {
		total += aggrEntryOverhead + len(p.req.data)
	}
	out := make([]byte, 0, total)
	var hdr [aggrEntryOverhead]byte
	for _, p := range train {
		binary.LittleEndian.PutUint64(hdr[0:], uint64(int64(p.req.tag)))
		binary.LittleEndian.PutUint64(hdr[8:], p.req.seq)
		binary.LittleEndian.PutUint64(hdr[16:], uint64(len(p.req.data)))
		out = append(out, hdr[:]...)
		out = append(out, p.req.data...)
	}
	return out
}

// decodeAggr parses an aggregated payload; it returns nil on corruption.
func decodeAggr(payload []byte) []aggrSub {
	var subs []aggrSub
	for len(payload) > 0 {
		if len(payload) < aggrEntryOverhead {
			return nil
		}
		tag := int(int64(binary.LittleEndian.Uint64(payload[0:])))
		seq := binary.LittleEndian.Uint64(payload[8:])
		n := int(binary.LittleEndian.Uint64(payload[16:]))
		payload = payload[aggrEntryOverhead:]
		if n < 0 || n > len(payload) {
			return nil
		}
		subs = append(subs, aggrSub{tag: tag, seq: seq, data: payload[:n]})
		payload = payload[n:]
	}
	return subs
}
