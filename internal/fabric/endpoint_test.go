package fabric

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"pioman/internal/testenv"
	"pioman/internal/wire"
)

func newTestCore(t *testing.T, notify bool) *EndpointCore {
	t.Helper()
	c, err := NewEndpointCore("testfab", 0, 2, 64, notify)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEndpointCoreRejectsBadIdentity(t *testing.T) {
	for _, tc := range []struct{ self, nodes int }{{0, 0}, {-1, 2}, {2, 2}} {
		if _, err := NewEndpointCore("testfab", tc.self, tc.nodes, 64, true); err == nil {
			t.Errorf("rank %d of %d accepted", tc.self, tc.nodes)
		}
	}
}

// TestEndpointCoreNotifyCoalesces: a burst of arrivals with nobody
// waiting leaves exactly one pending edge, never blocks the producer,
// and the receiver that consumes the edge drains the whole burst.
func TestEndpointCoreNotifyCoalesces(t *testing.T) {
	c := newTestCore(t, true)
	for i := 0; i < 10; i++ {
		c.Deliver(&wire.Packet{Seq: uint64(i)})
	}
	c.DeliverRun([]*wire.Packet{{Seq: 10}, {Seq: 11}})
	if n := len(c.notify); n != 1 {
		t.Fatalf("%d pending notify edges after a burst, want 1", n)
	}
	for i := 0; i < 12; i++ {
		p := c.BlockingRecv(time.Second)
		if p == nil || p.Seq != uint64(i) {
			t.Fatalf("recv %d: got %+v", i, p)
		}
	}
	// The stale edge costs one re-poll, then the wait runs to its
	// deadline.
	if p := c.BlockingRecv(5 * time.Millisecond); p != nil {
		t.Fatalf("drained inbox yielded %+v", p)
	}
	if n := len(c.notify); n != 0 {
		t.Fatalf("%d notify edges left after the wait", n)
	}
	// A core without an edge queues the same way.
	quiet := newTestCore(t, false)
	quiet.Deliver(&wire.Packet{Seq: 1})
	if !quiet.Pending() || quiet.Poll().Seq != 1 || quiet.Pending() {
		t.Fatal("edge-less inbox does not queue")
	}
}

func TestEndpointCoreBlockingRecv(t *testing.T) {
	t.Run("TimesOut", func(t *testing.T) {
		c := newTestCore(t, true)
		start := time.Now()
		if p := c.BlockingRecv(20 * time.Millisecond); p != nil {
			t.Fatalf("empty inbox yielded %+v", p)
		}
		if d := time.Since(start); d < 20*time.Millisecond {
			t.Fatalf("returned after %v, before the 20ms deadline", d)
		}
	})
	t.Run("WakesOnPush", func(t *testing.T) {
		c := newTestCore(t, true)
		go func() {
			time.Sleep(10 * time.Millisecond)
			c.Deliver(&wire.Packet{Seq: 7})
		}()
		if p := c.BlockingRecv(10 * time.Second); p == nil || p.Seq != 7 {
			t.Fatalf("got %+v, want the pushed packet", p)
		}
	})
	t.Run("WakesOnClose", func(t *testing.T) {
		c := newTestCore(t, true)
		go func() {
			time.Sleep(10 * time.Millisecond)
			if c.BeginClose() {
				c.EndClose()
			}
		}()
		start := time.Now()
		if p := c.BlockingRecv(10 * time.Second); p != nil {
			t.Fatalf("closed endpoint yielded %+v", p)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("close took %v to wake the receiver", d)
		}
		if c.BeginClose() {
			t.Fatal("second BeginClose claimed the close again")
		}
	})
}

func TestEndpointCoreAdmitSend(t *testing.T) {
	c := newTestCore(t, true)
	for _, tc := range []struct {
		name string
		p    *wire.Packet
	}{
		{"dst below range", &wire.Packet{Dst: -1}},
		{"dst above range", &wire.Packet{Dst: 2}},
		{"oversize payload", &wire.Packet{Dst: 1, Payload: make([]byte, 65)}},
	} {
		if local, err := c.AdmitSend(tc.p); err == nil || local {
			t.Errorf("%s: admitted (local=%v, err=%v)", tc.name, local, err)
		}
	}
	// A cross-rank packet is admitted for the backend to send, with its
	// WireLen defaulted.
	p := &wire.Packet{Dst: 1, Payload: make([]byte, 64)}
	if local, err := c.AdmitSend(p); err != nil || local {
		t.Fatalf("cross-rank send: local=%v err=%v", local, err)
	}
	if p.WireLen != 64 {
		t.Fatalf("WireLen = %d, want the payload length", p.WireLen)
	}
	if c.Pending() {
		t.Fatal("cross-rank packet entered the local inbox")
	}
	if c.BeginClose() {
		c.EndClose()
	}
	if _, err := c.AdmitSend(&wire.Packet{Dst: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
}

// TestEndpointCoreSelfDeliveryCopies: a self-addressed packet reaches
// the inbox as a pooled copy, so the sender may reuse both the packet
// and its payload the moment Send returns.
func TestEndpointCoreSelfDeliveryCopies(t *testing.T) {
	c := newTestCore(t, true)
	payload := []byte("self-delivered")
	p := &wire.Packet{Kind: wire.PktEager, Src: 0, Dst: 0, Tag: 3, Payload: payload}
	if local, err := c.AdmitSend(p); err != nil || !local {
		t.Fatalf("self send: local=%v err=%v", local, err)
	}
	copy(payload, "XXXXXXXXXXXXXX")
	p.Tag = 99
	q := c.Poll()
	if q == nil || q == p {
		t.Fatalf("inbox holds %p, want a copy of %p", q, p)
	}
	if q.Tag != 3 || !bytes.Equal(q.Payload, []byte("self-delivered")) || !q.Pooled {
		t.Fatalf("copy is %+v, want the packet as sent, pooled", q)
	}
	ReleasePacket(q)
}

// TestEndpointCoreAllocs pins the allocation-free receive path: a warm
// inbox push/pop cycle, single and batched, and a BlockingRecv that
// times out on a pooled timer.
func TestEndpointCoreAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := newTestCore(t, true)
	p := &wire.Packet{}
	run := []*wire.Packet{p, p, p, p}
	into := make([]*wire.Packet, len(run))
	cycle := func() {
		c.Deliver(p)
		c.DeliverRun(run)
		c.Poll()
		c.PollBatch(into)
	}
	cycle()
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Errorf("steady push/pop cycle: %.2f allocs/op, want 0", a)
	}
	c.BlockingRecv(time.Microsecond) // warm the timer pool
	if a := testing.AllocsPerRun(50, func() { c.BlockingRecv(time.Microsecond) }); a != 0 {
		t.Errorf("timed-out BlockingRecv: %.2f allocs/op, want 0", a)
	}
}
