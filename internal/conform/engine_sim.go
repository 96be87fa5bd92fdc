package conform

import (
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/sim"
)

// simEngine is the deterministic reference and, run alone, the chaos
// suite's engine: the cycle engine with the stepped directory. AwaitStep
// *drives* the simulation (the other engines merely wait on their
// clocks), so a conformance run on it is a pure function of (options,
// scenario).
type simEngine struct {
	*sim.Engine

	dir *core.SteppedDirectory

	lossDrops, partitionDrops int64
}

func newSimEngine(opts Options) *simEngine {
	e := &simEngine{dir: core.NewSteppedDirectory()}
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

func (e *simEngine) directory(sim.NodeID) core.Directory {
	return core.LivenessDirectory{Directory: e.dir, Alive: e.Engine.Alive}
}

func (e *simEngine) start(id sim.NodeID, node *core.Node, restart bool) error {
	if restart {
		return e.Engine.Restart(id, node)
	}
	return e.Engine.Add(id, node)
}

// do calls fn inline: the cycle engine's nodes are only touched between
// steps.
func (e *simEngine) do(id sim.NodeID, fn func()) error {
	if !e.Engine.Alive(id) {
		return errDead(id)
	}
	fn()
	return nil
}

func (e *simEngine) TreeOwner(attr string) (sim.NodeID, bool) { return e.dir.Owner(attr) }

func (e *simEngine) Stats() EngineStats {
	return EngineStats{
		FaultLoss:      e.lossDrops,
		FaultPartition: e.partitionDrops,
	}
}

func (e *simEngine) Close() {}
