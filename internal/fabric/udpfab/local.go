package udpfab

import "pioman/internal/fabric"

// Local is an in-process UDP fabric: n endpoints bound to loopback
// ephemeral ports with each other's addresses pre-taught (see
// fabric.Loopback). Every datagram still crosses the kernel's UDP stack.
type Local = fabric.Loopback

// NewLocal builds an n-node loopback fabric.
func NewLocal(n int) (*Local, error) { return NewLocalChaos(n, nil) }

// NewLocalChaos builds an n-node loopback fabric with datagram-level
// chaos injection on every endpoint's transmit path. Each endpoint gets
// its own random source derived from chaos.Seed and its rank, so a
// multi-endpoint run is replayable from the one logged seed. A nil
// chaos is NewLocal.
func NewLocalChaos(n int, chaos *ChaosParams) (*Local, error) {
	return fabric.NewLoopback("udpfab", n, func(rank int) (*Endpoint, error) {
		cfg := Config{Self: rank, Nodes: n, Listen: "127.0.0.1:0"}
		if chaos != nil {
			cp := *chaos
			cp.Seed = chaos.Seed*1000003 + int64(rank)
			cfg.Chaos = &cp
		}
		return New(cfg)
	})
}
