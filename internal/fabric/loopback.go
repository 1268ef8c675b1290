package fabric

import (
	"fmt"
	"net"
)

// Loopback is a Fabric spanning n in-process endpoints of a socket
// backend, each bound to an ephemeral localhost port and taught every
// peer's actual address — the tcoin-style "many real nodes on ephemeral
// ports inside one go test" setup behind tcpfab.Local and udpfab.Local.
// Every frame still crosses the kernel's network stack. It exists for
// tests, benches and in-process worlds; distributed deployments build
// one endpoint per process instead.
type Loopback struct {
	name string
	eps  []loopbackEndpoint
}

// loopbackEndpoint is what Loopback needs of a socket backend's
// endpoint: its bound address, and a way to learn a peer's.
type loopbackEndpoint interface {
	Endpoint
	Addr() net.Addr
	SetPeerAddr(rank int, addr string)
}

// NewLoopback opens n endpoints with open(rank), each listening on a
// localhost ephemeral port, then teaches every endpoint every peer's
// address. name prefixes errors. On failure the endpoints already opened
// are closed.
func NewLoopback[E loopbackEndpoint](name string, n int, open func(rank int) (E, error)) (*Loopback, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%s: local fabric needs at least one node", name)
	}
	l := &Loopback{name: name, eps: make([]loopbackEndpoint, n)}
	for i := range l.eps {
		ep, err := open(i)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.eps[i] = ep
	}
	for i, e := range l.eps {
		for j, f := range l.eps {
			if i != j {
				e.SetPeerAddr(j, f.Addr().String())
			}
		}
	}
	return l, nil
}

// Nodes implements Fabric.
func (l *Loopback) Nodes() int { return len(l.eps) }

// Endpoint implements Fabric.
func (l *Loopback) Endpoint(rank int) (Endpoint, error) {
	if rank < 0 || rank >= len(l.eps) {
		return nil, fmt.Errorf("%s: rank %d outside local fabric of %d", l.name, rank, len(l.eps))
	}
	return l.eps[rank], nil
}

// Close implements Fabric: every endpoint is closed.
func (l *Loopback) Close() error {
	for _, e := range l.eps {
		if e != nil {
			e.Close()
		}
	}
	return nil
}
