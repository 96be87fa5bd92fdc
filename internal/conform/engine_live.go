package conform

import (
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/livenet"
	"github.com/dps-overlay/dps/internal/sim"
)

// liveEngine runs the population on the goroutine runtime: one goroutine
// per peer, wall-clock ticks, asynchronous channel delivery, the shared
// in-process directory. The hub implements the fault surface natively;
// every protocol interaction from the driver goes through Peer.Do so it
// executes on the peer's own goroutine (core nodes are single-goroutine
// by design).
type liveEngine struct {
	*livenet.Hub

	dir   *core.SharedDirectory
	tick  time.Duration
	peers map[sim.NodeID]*livenet.Peer
}

func newLiveEngine(opts Options) *liveEngine {
	return &liveEngine{
		Hub:   livenet.NewHub(livenet.Config{TickEvery: opts.TickEvery, Seed: opts.Seed}),
		dir:   core.NewSharedDirectory(),
		tick:  opts.TickEvery,
		peers: make(map[sim.NodeID]*livenet.Peer),
	}
}

func (e *liveEngine) Name() string { return EngineLive }

// AwaitStep sleeps until the hub clock reaches the target tick.
func (e *liveEngine) AwaitStep(step int64) { awaitTick(e.Now, e.tick, step) }

func (e *liveEngine) directory(sim.NodeID) core.Directory {
	return core.LivenessDirectory{Directory: e.dir, Alive: e.Alive}
}

// start adds the peer; a restart is the same call, since the hub salts
// each incarnation's random stream itself.
func (e *liveEngine) start(id sim.NodeID, node *core.Node, _ bool) error {
	peer, err := e.AddPeer(id, node)
	if err != nil {
		return err
	}
	e.peers[id] = peer
	return nil
}

func (e *liveEngine) do(id sim.NodeID, fn func()) error {
	peer := e.peers[id]
	if peer == nil || !e.Alive(id) {
		return errDead(id)
	}
	return peer.Do(fn)
}

func (e *liveEngine) TreeOwner(attr string) (sim.NodeID, bool) { return e.dir.Owner(attr) }

func (e *liveEngine) Stats() EngineStats {
	var inbox int64
	for _, p := range e.peers {
		inbox += p.Dropped()
	}
	loss, partition := e.DroppedFaults()
	return EngineStats{InboxDropped: inbox, FaultLoss: loss, FaultPartition: partition}
}

// awaitTick sleeps until a wall-clock engine's clock reaches step.
func awaitTick(now func() int64, tick time.Duration, step int64) {
	for now() < step {
		time.Sleep(tick / 4)
	}
}
