package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/livenet"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/tcpnet"
)

// tickEvery is the live engines' protocol step, the dps facade's and
// dps-node's default.
const tickEvery = 10 * time.Millisecond

// run is one measured or traced pass of a workload: its clock and, when
// traced, its tracer.
type run struct {
	base     time.Time
	cpuStart float64 // process CPU seconds when the run began
	tracer   *tracer
}

func newRun(traced bool, engine string) *run {
	r := &run{base: time.Now(), cpuStart: cpuSeconds()}
	if traced {
		r.tracer = newTracer(r, engine)
	}
	return r
}

// now is nanoseconds since the run started, on the monotonic clock.
func (r *run) now() int64 { return int64(time.Since(r.base)) }

// cluster is one engine hosting benchmark nodes.
type cluster interface {
	// add starts the node as a process of the engine.
	add(n *node) error
	// do runs fn on the node's goroutine and waits for it.
	do(n *node, fn func()) error
	// wait lets the given number of protocol steps pass.
	wait(steps int)
	// dropped is the engine's count of messages it lost at the node.
	dropped(n *node) int64
	// directory is the bootstrap directory for one new node.
	directory() core.Directory
	close()
}

// nodeConfig builds a node the way dps-node and the dps facade do.
func nodeConfig(dir core.Directory) core.Config {
	cfg := core.DefaultConfig()
	cfg.StrictRepair = true
	cfg.Directory = dir
	return cfg
}

// dropCounter is an engine's count of the messages it lost at a node:
// a *livenet.Peer, a *tcpnet.Transport or the cycle engine's simDrops.
type dropCounter interface{ Dropped() int64 }

// simDrops counts the cycle engine's drops at one node.
type simDrops struct{ atomic.Int64 }

func (k *simDrops) Dropped() int64 { return k.Load() }

// dropIndex finds each node's engine drop counter. Nodes read it on
// their own goroutines while the generator is still adding nodes.
type dropIndex struct{ m sync.Map } // sim.NodeID → dropCounter

func (x *dropIndex) set(id sim.NodeID, k dropCounter) { x.m.Store(id, k) }

func (x *dropIndex) count(id sim.NodeID) int64 {
	if k, ok := x.m.Load(id); ok {
		return k.(dropCounter).Dropped()
	}
	return 0
}

func (x *dropIndex) any(id sim.NodeID) bool { return x.count(id) > 0 }

// trace wires a traced run's engine-specific parts into its tracer.
func (x *dropIndex) trace(r *run, tickLate func(nt *nodeTrace, now int64) int64) {
	if r.tracer != nil {
		r.tracer.links.dropped = x.any
		r.tracer.tickLate = tickLate
	}
}

// liveCluster runs nodes on livenet, the dps facade's runtime.
type liveCluster struct {
	dropIndex
	hub   *livenet.Hub
	dir   *core.SharedDirectory
	peers map[sim.NodeID]*livenet.Peer
}

func newLiveCluster(r *run, seed int64) *liveCluster {
	c := &liveCluster{
		hub:   livenet.NewHub(livenet.Config{TickEvery: tickEvery, Seed: seed}),
		dir:   core.NewSharedDirectory(),
		peers: make(map[sim.NodeID]*livenet.Peer),
	}
	c.trace(r, intervalLateness)
	return c
}

func (c *liveCluster) directory() core.Directory { return c.dir }

func (c *liveCluster) add(n *node) error {
	p, err := c.hub.AddPeer(n.id, n)
	if err != nil {
		return err
	}
	c.peers[n.id] = p
	c.set(n.id, p)
	return nil
}

func (c *liveCluster) do(n *node, fn func()) error { return c.peers[n.id].Do(fn) }
func (c *liveCluster) wait(steps int)              { time.Sleep(time.Duration(steps) * tickEvery) }
func (c *liveCluster) dropped(n *node) int64       { return c.count(n.id) }
func (c *liveCluster) close()                      { c.hub.Close() }

// tcpCluster runs each node on its own tcpnet transport over loopback,
// bootstrapped by an in-process directory service, as dps-node does.
type tcpCluster struct {
	dropIndex
	seed    int64
	srv     *tcpnet.DirectoryServer
	clients []*tcpnet.DirectoryClient
	trs     map[sim.NodeID]*tcpnet.Transport
}

func newTCPCluster(r *run, seed int64) (*tcpCluster, error) {
	srv, err := tcpnet.ListenDirectory("127.0.0.1:0", seed)
	if err != nil {
		return nil, fmt.Errorf("directory: %w", err)
	}
	c := &tcpCluster{seed: seed, srv: srv, trs: make(map[sim.NodeID]*tcpnet.Transport)}
	c.trace(r, intervalLateness)
	return c, nil
}

// directory returns a fresh client of the directory service for one node.
func (c *tcpCluster) directory() core.Directory {
	cl := tcpnet.DialDirectory(c.srv.Addr())
	c.clients = append(c.clients, cl)
	return cl
}

func (c *tcpCluster) add(n *node) error {
	tr, err := tcpnet.New(tcpnet.Config{
		ID:        n.id,
		Listen:    "127.0.0.1:0",
		TickEvery: tickEvery,
		Seed:      c.seed ^ int64(n.id)<<16,
	}, n)
	if err != nil {
		return err
	}
	for id, other := range c.trs {
		tr.AddPeer(id, other.Addr())
		other.AddPeer(n.id, tr.Addr())
	}
	c.trs[n.id] = tr
	c.set(n.id, tr)
	return nil
}

func (c *tcpCluster) do(n *node, fn func()) error { return c.trs[n.id].Do(fn) }
func (c *tcpCluster) wait(steps int)              { time.Sleep(time.Duration(steps) * tickEvery) }
func (c *tcpCluster) dropped(n *node) int64       { return c.count(n.id) }

func (c *tcpCluster) close() {
	for _, tr := range c.trs {
		_ = tr.Close() // shutting down: the run's results are already taken
	}
	for _, cl := range c.clients {
		_ = cl.Close()
	}
	_ = c.srv.Close()
}

// intervalLateness is a live node's tick lateness: how much longer than
// one tick period passed since its previous tick.
func intervalLateness(nt *nodeTrace, now int64) int64 {
	if nt.lastTick == 0 {
		return 0
	}
	if late := now - nt.lastTick - int64(tickEvery); late > 0 {
		return late
	}
	return 0
}

// simCluster runs nodes on the cycle engine with the stepped directory,
// the substrate of the scale experiment.
type simCluster struct {
	dropIndex
	r     *run
	eng   *sim.Engine
	dir   *core.SteppedDirectory
	steps []int64 // wall time of each step, ns

	// pace, when set, is the period steps are due at, as the live
	// engines tick; a step that overruns its period delays the next.
	// Unset, the engine steps as fast as it can.
	pace time.Duration
	due  int64 // run clock, ns: when the next paced step is due
}

// newSimCluster starts the cycle engine paced at the live engines'
// tick, the protocol period of a deployment.
func newSimCluster(r *run, seed int64, workers int) *simCluster {
	c := &simCluster{r: r, dir: core.NewSteppedDirectory(), pace: tickEvery}
	c.eng = sim.NewEngine(sim.Config{
		Seed:    seed,
		Workers: workers,
		OnDrop: func(_, to sim.NodeID, _ any, _ sim.DropReason) {
			if k, ok := c.m.Load(to); ok {
				k.(*simDrops).Add(1)
			}
		},
	})
	c.eng.AddService(c.dir)
	if t := r.tracer; t != nil {
		// A cycle-engine node's tick is due when its step begins.
		c.trace(r, func(_ *nodeTrace, now int64) int64 { return now - t.stepStart.Load() })
	}
	return c
}

func (c *simCluster) directory() core.Directory   { return c.dir }
func (c *simCluster) do(_ *node, fn func()) error { fn(); return nil }
func (c *simCluster) dropped(n *node) int64       { return c.count(n.id) }
func (c *simCluster) close()                      {}

func (c *simCluster) add(n *node) error {
	c.set(n.id, new(simDrops))
	return c.eng.Add(n.id, n)
}

func (c *simCluster) wait(steps int) {
	for i := 0; i < steps; i++ {
		if c.pace > 0 {
			if early := c.due - c.r.now(); early > 0 {
				time.Sleep(time.Duration(early))
			}
			c.due = max(c.due+int64(c.pace), c.r.now())
		}
		start := c.r.now()
		if t := c.r.tracer; t != nil {
			t.stepStart.Store(start)
		}
		c.eng.Step()
		c.steps = append(c.steps, c.r.now()-start)
	}
}
