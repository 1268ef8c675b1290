package tcpfab

import "pioman/internal/fabric"

// Local is a fabric.Fabric spanning n in-process endpoints that still talk
// through real localhost TCP sockets (see fabric.Loopback).
type Local = fabric.Loopback

// NewLocal binds n endpoints on ephemeral localhost ports and teaches each
// every peer's actual address.
func NewLocal(n int) (*Local, error) {
	return fabric.NewLoopback("tcpfab", n, func(rank int) (*Endpoint, error) {
		return New(Config{Self: rank, Nodes: n, Listen: "127.0.0.1:0"})
	})
}
