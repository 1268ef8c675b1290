package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/fabric/shmfab"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/fabric/udpfab"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/telemetry"
	"pioman/internal/topo"
)

// Lanes name the transports a workload runs over.
const (
	laneShm  = "shm"
	laneTCP  = "tcp"
	laneUDP  = "udp"
	laneBond = "bond" // tcp rail plus shm rail in one world, striped
)

// lossyDrop is the datagram drop probability the lossy lane injects
// beneath udpfab's reliability sublayer.
const lossyDrop = 0.01

// worldEnv carries what every world of a run is built from.
type worldEnv struct {
	dir  string // scratch directory for ring files, inside the checkout
	seed int64  // chaos seed of the lossy lane
	n    int    // worlds built so far, for fresh ring directories
}

// engineConfig is the configuration cmd/pingpong ships for real
// transports: multithreaded engine with eager offload, blocking watchers,
// no idle polling, one socket of two cores per rank, default WaitSpin
// and WatcherCheck, fifo strategy.
func engineConfig() mpi.Config {
	return mpi.Config{
		Nodes:          2,
		Mode:           core.Multithreaded,
		OffloadEager:   true,
		EnableBlocking: true,
		NoIdlePolling:  true,
		Machine:        topo.Machine{Sockets: 1, CoresPerSocket: 2},
	}
}

// benchWorld is a running world with the fabrics it was built over.
type benchWorld struct {
	w    *mpi.World
	fabs map[string]fabric.Fabric
	dir  string // ring directory, removed on close
}

func (b *benchWorld) close() {
	b.w.Close()
	os.RemoveAll(b.dir)
}

// openFabrics builds lane's fabrics, keyed by rail name, with the rail
// parameters of the default rail and of the second rail (bond only).
func openFabrics(lane string, env *worldEnv) (map[string]fabric.Fabric, nic.Params, nic.Params, string, error) {
	env.n++
	ringDir := filepath.Join(env.dir, fmt.Sprintf("rings-%d-%d", os.Getpid(), env.n))
	openShm := func() (fabric.Fabric, error) {
		if err := os.MkdirAll(ringDir, 0o755); err != nil {
			return nil, err
		}
		return shmfab.NewLocal(2, ringDir)
	}
	var none nic.Params
	switch lane {
	case laneShm:
		f, err := openShm()
		rail := nic.ShmParams()
		return map[string]fabric.Fabric{rail.Name: f}, rail, none, ringDir, err
	case laneTCP:
		f, err := tcpfab.NewLocal(2)
		rail := nic.RealParams()
		return map[string]fabric.Fabric{rail.Name: f}, rail, none, ringDir, err
	case laneUDP:
		// Each world draws its own drop pattern from the run seed.
		f, err := udpfab.NewLocalChaos(2, &udpfab.ChaosParams{Seed: env.seed*1000 + int64(env.n), Drop: lossyDrop})
		rail := nic.UdpParams()
		return map[string]fabric.Fabric{rail.Name: f}, rail, none, ringDir, err
	case laneBond:
		tf, err := tcpfab.NewLocal(2)
		if err != nil {
			return nil, none, none, ringDir, err
		}
		sf, err := openShm()
		if err != nil {
			tf.Close()
			return nil, none, none, ringDir, err
		}
		tcpRail, shmRail := nic.RealParams(), nic.ShmParams()
		tcpRail.Name = "tcp"
		return map[string]fabric.Fabric{tcpRail.Name: tf, shmRail.Name: sf}, tcpRail, shmRail, ringDir, nil
	}
	return nil, none, none, ringDir, fmt.Errorf("unknown lane %q", lane)
}

// openWorld builds a two-rank in-process world over lane's real fabrics;
// metrics, when non-nil, receives every layer's counters.
func openWorld(lane string, env *worldEnv, metrics *telemetry.Registry) (*benchWorld, error) {
	fabs, rail, second, dir, err := openFabrics(lane, env)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cfg := engineConfig()
	cfg.Metrics = metrics
	cfg.MX = rail
	cfg.Fabrics = fabs
	if second.Name != "" {
		cfg.SHM = second
		cfg.Strategy = "multirail"
	}
	return &benchWorld{w: mpi.NewWorld(cfg), fabs: fabs, dir: dir}, nil
}

// buildTimed opens one world, runs its first barrier and appends the
// time both took to times.
func buildTimed(lane string, env *worldEnv, metrics *telemetry.Registry, times *[]float64) (*benchWorld, error) {
	t0 := time.Now()
	bw, err := openWorld(lane, env, metrics)
	if err != nil {
		return nil, fmt.Errorf("build %s world: %w", lane, err)
	}
	bw.w.RunAll(func(p *mpi.Proc) { p.Barrier() })
	*times = append(*times, time.Since(t0).Seconds())
	return bw, nil
}
