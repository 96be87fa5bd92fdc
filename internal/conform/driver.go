package conform

import (
	"fmt"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// driver is the node handling every engine shares, written once over a
// host: sequential id allocation, the node map, durable subscriptions
// and the delivery oracle. It touches a node only through host.do, so a
// dead node behaves the same on every engine — Subscribe and Publish
// fail, StructuralSnapshot is nil, Corrupt is false and Leave does
// nothing.
//
// The driver is what the runner hands the chaos checker and injector:
// their Target, FaultSurface (through the embedded host), Population and
// Corruptor. Its methods run on the runner goroutine only.
type driver struct {
	host
	pop   *population
	rec   *recorder
	nodes map[sim.NodeID]*core.Node
	batch bool
	cover bool
}

// newEngine builds the named engine's host under a driver over fresh
// population bookkeeping.
func newEngine(name string, opts Options, pop *population, rec *recorder) (*driver, error) {
	var h host
	switch name {
	case EngineSim:
		h = newSimEngine(opts)
	case EngineLive:
		h = newLiveEngine(opts)
	case EngineTCP:
		t, err := newTCPEngine(opts)
		if err != nil {
			return nil, err
		}
		h = t
	default:
		return nil, fmt.Errorf("conform: unknown engine %q", name)
	}
	return &driver{
		host:  h,
		pop:   pop,
		rec:   rec,
		nodes: make(map[sim.NodeID]*core.Node),
		batch: opts.Batch,
		cover: opts.Cover,
	}, nil
}

// bootstrap adds the initial population and feeds it the two-wave
// subscription plan, 25 subscriptions per step, with the same settle
// windows the experiment cluster uses.
func (d *driver) bootstrap(nodes int) error {
	plan := buildPlan(d.pop, nodes, d.AddNode)
	feed := func(jobs []plannedSub) error {
		for len(jobs) > 0 {
			k := min(25, len(jobs))
			for _, j := range jobs[:k] {
				if err := d.Subscribe(j.id, j.sub); err != nil {
					return fmt.Errorf("conform: %s bootstrap subscribe: %w", d.Name(), err)
				}
			}
			jobs = jobs[k:]
			d.AwaitStep(d.Now() + 1)
		}
		return nil
	}
	if err := feed(plan.creators); err != nil {
		return err
	}
	d.AwaitStep(d.Now() + 25) // groups settle before the join wave
	if err := feed(plan.joiners); err != nil {
		return err
	}
	d.AwaitStep(d.Now() + 120) // settle joins, co-leader announcements, adoption
	return nil
}

// launch builds a protocol node for id and starts it on the host.
func (d *driver) launch(id sim.NodeID, restart bool) {
	node, err := core.NewNode(nodeConfig(d.directory(id), d.batch, d.cover))
	if err != nil {
		panic(fmt.Sprintf("conform: NewNode: %v", err)) // static config
	}
	node.OnDeliverHook(func(ev core.EventID, _ filter.Event) {
		d.rec.deliver(ev, id)
	})
	if err := d.start(id, node, restart); err != nil {
		panic(fmt.Sprintf("conform: %s start %d: %v", d.Name(), id, err))
	}
	d.nodes[id] = node
}

// on runs fn against the node on its own goroutine and returns fn's
// error, or the host's when the node is dead.
func (d *driver) on(id sim.NodeID, fn func(*core.Node) error) error {
	node := d.nodes[id]
	if node == nil {
		return errDead(id)
	}
	var err error
	if doErr := d.do(id, func() { err = fn(node) }); doErr != nil {
		return doErr
	}
	return err
}

// AddNode spawns one fresh protocol node and returns its id. Ids are
// sequential from 1, so identical call sequences yield identical id
// assignments on every engine — the property the cross-engine fault
// determinism rests on.
func (d *driver) AddNode() sim.NodeID {
	id := d.pop.allocID()
	d.launch(id, false)
	return id
}

// Subscribe registers a subscription at a live node and records it as
// durable: a later Restart of the identity re-issues it.
func (d *driver) Subscribe(id sim.NodeID, sub filter.Subscription) error {
	if err := d.on(id, func(n *core.Node) error { return n.Subscribe(sub) }); err != nil {
		return err
	}
	if err := d.rec.subscribe(id, sub); err != nil {
		return err
	}
	d.pop.remember(id, sub)
	return nil
}

// Publish injects a tracked event at a live node.
func (d *driver) Publish(id sim.NodeID, ev core.EventID, event filter.Event) error {
	return d.on(id, func(n *core.Node) error { return n.Publish(ev, event) })
}

// PublishMany injects a run of tracked events at one live node in a
// single scheduling round — the throughput experiment's bulk path. evs
// and events are parallel.
func (d *driver) PublishMany(id sim.NodeID, evs []core.EventID, events []filter.Event) error {
	return d.on(id, func(n *core.Node) error {
		for i := range evs {
			if err := n.Publish(evs[i], events[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// Restart revives a crashed identity with a fresh protocol instance
// re-issuing its durable subscriptions (chaos.Population).
func (d *driver) Restart(id sim.NodeID) {
	d.launch(id, true)
	subs := d.pop.durable(id)
	if err := d.on(id, func(n *core.Node) error {
		for _, sub := range subs {
			if err := n.Subscribe(sub); err != nil {
				return fmt.Errorf("re-subscribe: %w", err)
			}
		}
		return nil
	}); err != nil {
		panic(fmt.Sprintf("conform: restart %d: %v", id, err))
	}
}

// Join adds one fresh subscriber with the population's per-node
// subscription count (chaos.Population).
func (d *driver) Join() sim.NodeID {
	id := d.AddNode()
	for s := 0; s < d.pop.perNode; s++ {
		if err := d.Subscribe(id, d.pop.gen.Subscription()); err != nil {
			panic(fmt.Sprintf("conform: join subscribe: %v", err))
		}
	}
	return id
}

// Leave withdraws all of a live node's subscriptions gracefully
// (chaos.Population). A dead node keeps them: they die with it, and a
// restart re-issues them.
func (d *driver) Leave(id sim.NodeID) {
	subs := d.pop.durable(id)
	if err := d.on(id, func(n *core.Node) error {
		for _, sub := range subs {
			if err := n.Unsubscribe(sub); err != nil {
				panic(fmt.Sprintf("conform: unsubscribe on leave: %v", err))
			}
		}
		return nil
	}); err != nil {
		return
	}
	d.pop.forget(id)
	d.rec.leave(id)
}

// StructuralSnapshot returns deep-copied membership snapshots of one
// live node, collected on its own goroutine — the quiesce-window read
// feeding the invariant checker. A node that crashed between AliveIDs
// and this call returns nil.
func (d *driver) StructuralSnapshot(id sim.NodeID) []core.MembershipSnapshot {
	var snaps []core.MembershipSnapshot
	if d.on(id, func(n *core.Node) error { snaps = n.StructuralSnapshot(); return nil }) != nil {
		return nil
	}
	return snaps
}

// Corrupt applies a structural corruption op to one live node on its own
// goroutine (chaos.Corruptor). Returns false when the node is dead or
// ineligible for the op.
func (d *driver) Corrupt(id sim.NodeID, op core.CorruptionOp) bool {
	var ok bool
	if d.on(id, func(n *core.Node) error { ok = n.ApplyCorruption(op); return nil }) != nil {
		return false
	}
	return ok
}
