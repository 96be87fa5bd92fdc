package conform

import (
	"fmt"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// simEngine is the deterministic reference and, run alone, the chaos
// suite's engine: the cycle engine with the stepped directory. AwaitStep
// *drives* the simulation (the other engines merely wait on their
// clocks), so a conformance run on it is a pure function of (options,
// scenario).
type simEngine struct {
	*sim.Engine

	dir   *core.SteppedDirectory
	nodes map[sim.NodeID]*core.Node
	pop   *population
	rec   *recorder
	batch bool
	cover bool

	lossDrops, partitionDrops int64
}

var _ Engine = (*simEngine)(nil)

func newSimEngine(opts Options, pop *population, rec *recorder) *simEngine {
	e := &simEngine{
		dir:   core.NewSteppedDirectory(),
		nodes: make(map[sim.NodeID]*core.Node),
		pop:   pop,
		rec:   rec,
		batch: opts.Batch,
		cover: opts.Cover,
	}
	e.Engine = sim.NewEngine(sim.Config{
		Seed:    opts.Seed,
		Workers: opts.Workers,
		OnDrop: func(from, to sim.NodeID, msg any, reason sim.DropReason) {
			switch reason {
			case sim.DropLoss:
				e.lossDrops++
			case sim.DropPartition:
				e.partitionDrops++
			}
		},
	})
	e.Engine.AddService(e.dir)
	return e
}

func (e *simEngine) Name() string { return EngineSim }

// AwaitStep advances the simulation to the target step.
func (e *simEngine) AwaitStep(step int64) {
	for e.Engine.Now() < step {
		e.Engine.Step()
	}
}

func (e *simEngine) buildNode() *core.Node {
	cfg := nodeConfig(core.LivenessDirectory{Directory: e.dir, Alive: e.Engine.Alive}, e.batch, e.cover)
	node, err := core.NewNode(cfg)
	if err != nil {
		panic(fmt.Sprintf("conform: NewNode: %v", err)) // static config
	}
	node.OnDeliverHook(func(ev core.EventID, _ filter.Event) {
		e.rec.deliver(ev, node.ID())
	})
	return node
}

func (e *simEngine) AddNode() sim.NodeID {
	id := e.pop.allocID()
	node := e.buildNode()
	if err := e.Engine.Add(id, node); err != nil {
		panic(fmt.Sprintf("conform: engine.Add: %v", err))
	}
	e.nodes[id] = node
	return id
}

func (e *simEngine) Subscribe(id sim.NodeID, sub filter.Subscription) error {
	if err := e.nodes[id].Subscribe(sub); err != nil {
		return err
	}
	if err := e.rec.subscribe(id, sub); err != nil {
		return err
	}
	e.pop.remember(id, sub)
	return nil
}

func (e *simEngine) Publish(id sim.NodeID, ev core.EventID, event filter.Event) error {
	return e.nodes[id].Publish(ev, event)
}

func (e *simEngine) PublishMany(id sim.NodeID, evs []core.EventID, events []filter.Event) error {
	node := e.nodes[id]
	for i := range evs {
		if err := node.Publish(evs[i], events[i]); err != nil {
			return err
		}
	}
	return nil
}

func (e *simEngine) Restart(id sim.NodeID) {
	node := e.buildNode()
	if err := e.Engine.Restart(id, node); err != nil {
		panic(fmt.Sprintf("conform: engine.Restart: %v", err))
	}
	e.nodes[id] = node
	for _, sub := range e.pop.durable(id) {
		if err := node.Subscribe(sub); err != nil {
			panic(fmt.Sprintf("conform: re-subscribe after restart: %v", err))
		}
	}
}

func (e *simEngine) Join() sim.NodeID {
	id := e.AddNode()
	for s := 0; s < e.pop.perNode; s++ {
		if err := e.Subscribe(id, e.pop.gen.Subscription()); err != nil {
			panic(fmt.Sprintf("conform: join subscribe: %v", err))
		}
	}
	return id
}

func (e *simEngine) Leave(id sim.NodeID) {
	node := e.nodes[id]
	if node == nil {
		return
	}
	for _, sub := range e.pop.forget(id) {
		if err := node.Unsubscribe(sub); err != nil {
			panic(fmt.Sprintf("conform: unsubscribe on leave: %v", err))
		}
	}
	e.rec.leave(id)
}

func (e *simEngine) StructuralSnapshot(id sim.NodeID) []core.MembershipSnapshot {
	if !e.Engine.Alive(id) {
		return nil
	}
	return e.nodes[id].StructuralSnapshot()
}

// Corrupt mutates the node's structural state in place — the cycle
// engine's nodes are only touched between steps, so no Do indirection.
func (e *simEngine) Corrupt(id sim.NodeID, op core.CorruptionOp) bool {
	node := e.nodes[id]
	if node == nil || !e.Engine.Alive(id) {
		return false
	}
	return node.ApplyCorruption(op)
}

func (e *simEngine) TreeOwner(attr string) (sim.NodeID, bool) { return e.dir.Owner(attr) }

func (e *simEngine) Stats() EngineStats {
	return EngineStats{
		FaultLoss:      e.lossDrops,
		FaultPartition: e.partitionDrops,
	}
}

func (e *simEngine) Close() {}
