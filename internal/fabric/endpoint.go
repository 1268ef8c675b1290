package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pioman/internal/sync2"
	"pioman/internal/wire"
)

// EndpointCore is the part of an Endpoint every real transport shares:
// identity, the engine sequence counter, the closed state, the lost-frame
// counter, the locked arrival inbox, and the Send admission prelude. A
// backend embeds a *EndpointCore and keeps only what is truly its own —
// the wire, the cross-rank half of Send, and the Close drain — plus,
// when arrivals appear only when a receiver scans for them (shmfab's
// rings), its own Poll, PollBatch, Pending and BlockingRecv built on the
// inbox methods here. See docs/FABRIC.md, "Writing a backend".
//
// The inbox is a head-indexed FIFO (sync2.Queue) under one mutex, so a
// steady stream recycles one backing array: the allocation-free receive
// path. Backends whose arrivals are pushed by their own goroutines
// (tcpfab's pollers, udpfab's reader) ask for a notify edge, on which
// BlockingRecv parks; a scanning backend asks for none, and its pushes
// then pay nothing for it.
type EndpointCore struct {
	name        string // the backend's package name, prefixing errors
	self, nodes int
	maxPayload  int

	seq   atomic.Uint64
	lost  atomic.Uint64 // frames accepted by Send, then lost
	state atomic.Int32  // 0 open, 1 closed
	done  chan struct{} // closed by EndClose; wakes every blocked receiver

	mu     sync.Mutex
	inbox  sync2.Queue[*wire.Packet]
	notify chan struct{} // nil when nothing parks on arrivals
}

// NewEndpointCore validates rank self of an n-node cluster and returns
// the shared endpoint state for backend name (used as the error prefix).
// maxPayload is the largest payload one Send may carry; notify requests
// the arrival edge BlockingRecv parks on.
func NewEndpointCore(name string, self, nodes, maxPayload int, notify bool) (*EndpointCore, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("%s: cluster needs at least one node", name)
	}
	if self < 0 || self >= nodes {
		return nil, fmt.Errorf("%s: rank %d outside cluster of %d", name, self, nodes)
	}
	c := &EndpointCore{
		name:       name,
		self:       self,
		nodes:      nodes,
		maxPayload: maxPayload,
		done:       make(chan struct{}),
	}
	if notify {
		c.notify = make(chan struct{}, 1)
	}
	return c, nil
}

// Self implements Endpoint.
func (c *EndpointCore) Self() int { return c.self }

// Nodes implements Endpoint.
func (c *EndpointCore) Nodes() int { return c.nodes }

// NextSeq implements Endpoint. Sequence numbers only need to be unique
// per origin endpoint: receivers order per-sender streams. (They are
// unrelated to any sequence numbers a transport keeps on its own wire.)
func (c *EndpointCore) NextSeq() uint64 { return c.seq.Add(1) }

// Backlog implements Endpoint: a real transport runs its own flow
// control, so the submission gate is always open.
func (c *EndpointCore) Backlog(int) time.Duration { return 0 }

// SendCaptures implements SendCapturer: every real backend serializes
// cross-rank packets and copies self-deliveries (AdmitSend) before Send
// returns, so the caller may recycle the packet struct immediately.
func (c *EndpointCore) SendCaptures() bool { return true }

// MaxPayload implements PayloadLimiter: the transport's frame ceiling
// bounds what one Send can carry.
func (c *EndpointCore) MaxPayload() int { return c.maxPayload }

// LostFrames implements LossCounter: frames Send accepted that the
// backend later abandoned (see AddLost). These fail after Send returned,
// so they cannot surface as Send errors; a nonzero count is the loss
// signal to watch. Backends count conservatively, so it is an upper
// bound on loss, never an undercount.
func (c *EndpointCore) LostFrames() uint64 { return c.lost.Load() }

// AddLost counts n accepted frames as lost.
func (c *EndpointCore) AddLost(n int) { c.lost.Add(uint64(n)) }

// Closed reports whether Close has begun.
func (c *EndpointCore) Closed() bool { return c.state.Load() != 0 }

// BeginClose marks the endpoint closed — Send refuses from here on —
// and reports whether this call did so; only that caller runs the
// backend's Close drain, which makes Close idempotent.
func (c *EndpointCore) BeginClose() bool { return c.state.CompareAndSwap(0, 1) }

// EndClose wakes every receiver blocked in BlockingRecv and every
// goroutine waiting on Done. The backend calls it once, after its Close
// drain.
func (c *EndpointCore) EndClose() { close(c.done) }

// Done returns a channel closed by EndClose.
func (c *EndpointCore) Done() <-chan struct{} { return c.done }

// AdmitSend is the Send prelude every backend shares. It refuses a
// closed endpoint, a destination outside the cluster and a payload above
// MaxPayload — synchronously, because detected any later the transport
// could only treat it as a wire failure — and defaults a zero WireLen.
// A packet addressed to this endpoint is delivered here, reporting
// local: self-delivery skips the wire but not the payload limit (a
// payload must not pass rank-local testing only to fail on its first
// cross-rank trip) nor the capture rule, so the inbox gets a pooled copy
// (CapturePacket) the consumer's ReleasePacket recycles like any decoded
// arrival. The backend sends only when AdmitSend returns false, nil.
func (c *EndpointCore) AdmitSend(p *wire.Packet) (local bool, err error) {
	if c.Closed() {
		return false, ErrClosed
	}
	if p.Dst < 0 || p.Dst >= c.nodes {
		return false, fmt.Errorf("%s: send to rank %d outside cluster of %d", c.name, p.Dst, c.nodes)
	}
	if p.WireLen <= 0 {
		p.WireLen = len(p.Payload)
	}
	if len(p.Payload) > c.maxPayload {
		return false, fmt.Errorf("%s: %d-byte payload exceeds frame limit %d", c.name, len(p.Payload), c.maxPayload)
	}
	if p.Dst != c.self {
		return false, nil
	}
	c.Deliver(CapturePacket(p))
	return true, nil
}

// Deliver appends one arrival to the inbox and fires the notify edge.
func (c *EndpointCore) Deliver(p *wire.Packet) {
	c.mu.Lock()
	c.inbox.Push(p)
	c.mu.Unlock()
	c.wake()
}

// DeliverRun appends a whole decoded run under one lock acquisition and
// fires a single notify edge for it — the producer half of the batched
// receive path: a socket visit or ring scan that decoded k frames costs
// the inbox one lock round trip and wakes blocked receivers once, not k
// times.
func (c *EndpointCore) DeliverRun(run []*wire.Packet) {
	if len(run) == 0 {
		return
	}
	c.mu.Lock()
	c.inbox.PushRun(run)
	c.mu.Unlock()
	c.wake()
}

// wake fires the notify edge without blocking; edges coalesce, since a
// woken receiver drains everything queued.
func (c *EndpointCore) wake() {
	if c.notify == nil {
		return
	}
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// Poll implements Endpoint for backends whose arrivals all enter the
// inbox: it pops the oldest one, or returns nil.
func (c *EndpointCore) Poll() *wire.Packet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inbox.Pop()
}

// PollBatch implements Endpoint natively: one inbox lock round trip
// hands out a FIFO run. Per-sender order is preserved — each peer's
// packets enter the inbox in arrival order and the run pops in queue
// order.
func (c *EndpointCore) PollBatch(into []*wire.Packet) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inbox.PopRun(into)
}

// Pending implements Endpoint. Only packets already in the inbox count:
// bytes still in a kernel buffer or mid-decode are invisible here — the
// weaker Pending semantics the Endpoint contract documents for real
// transports. Arrivals fire the notify edge on their own, so a
// BlockingRecv waiter wakes regardless of what Pending reported.
func (c *EndpointCore) Pending() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inbox.Len() > 0
}

// BlockingRecv implements Endpoint. The deadline timer is drawn from a
// pool and armed once for the whole wait, so a blocking receive
// allocates nothing — spurious notify wakeups just re-poll while the
// timer keeps running toward the deadline.
func (c *EndpointCore) BlockingRecv(timeout time.Duration) *wire.Packet {
	if p := c.Poll(); p != nil {
		return p
	}
	t := sync2.GetTimer(timeout)
	fired := false
	defer func() { sync2.PutTimer(t, fired) }()
	for {
		if p := c.Poll(); p != nil {
			return p
		}
		if c.Closed() {
			return nil
		}
		select {
		case <-c.notify:
		case <-c.done:
		case <-t.C:
			fired = true
			return c.Poll()
		}
	}
}
