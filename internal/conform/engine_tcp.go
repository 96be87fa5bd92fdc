package conform

import (
	"fmt"
	"sync"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/tcpnet"
)

// tcpEngine runs the population as real TCP processes on loopback: one
// Transport (listener + node goroutine) per peer, length-prefixed binary
// frames on the wire, the networked directory service for bootstrap, and
// a shared FaultPlane as the injection surface. A crash is a closed
// transport (peers see dead connections and their sends drop); a restart
// is a fresh transport under the old identity on a fresh port, with the
// address books of every live peer updated — exactly a process reboot.
//
// The engine keeps its own logical clock (wall-clock ticks since start at
// the configured period) for scenario scheduling; each transport ticks
// its node independently at the same period, so harness steps and node
// steps advance at the same rate without sharing a clock — as deployed
// processes would.
type tcpEngine struct {
	pop   *population
	rec   *recorder
	tick  time.Duration
	seed  int64
	batch bool
	cover bool
	start time.Time

	dirSrv *tcpnet.DirectoryServer
	dirCli *tcpnet.DirectoryClient
	plane  *tcpnet.FaultPlane

	mu           sync.Mutex
	nodes        map[sim.NodeID]*tcpPeer
	incarnations map[sim.NodeID]int64
	// retiredDrops accumulates the inbox-drop counters of killed
	// incarnations, so Stats covers the whole run, not just the
	// transports alive at collection time.
	retiredDrops int64
}

// tcpPeer bundles one node's runtime pieces.
type tcpPeer struct {
	node *core.Node
	tr   *tcpnet.Transport
	dir  *tcpnet.DirectoryClient
}

var _ Engine = (*tcpEngine)(nil)

func newTCPEngine(opts Options, pop *population, rec *recorder) (*tcpEngine, error) {
	srv, err := tcpnet.ListenDirectory("127.0.0.1:0", opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("conform: directory listen: %w", err)
	}
	return &tcpEngine{
		pop:          pop,
		rec:          rec,
		tick:         opts.TickEvery,
		seed:         opts.Seed,
		batch:        opts.Batch,
		cover:        opts.Cover,
		start:        time.Now(),
		dirSrv:       srv,
		dirCli:       tcpnet.DialDirectory(srv.Addr()),
		plane:        tcpnet.NewFaultPlane(opts.Seed),
		nodes:        make(map[sim.NodeID]*tcpPeer),
		incarnations: make(map[sim.NodeID]int64),
	}, nil
}

func (e *tcpEngine) Name() string { return EngineTCP }

// Now is the harness clock: wall-clock ticks since engine start.
func (e *tcpEngine) Now() int64 { return int64(time.Since(e.start) / e.tick) }

// AwaitStep sleeps until the harness clock reaches the target tick.
func (e *tcpEngine) AwaitStep(step int64) {
	for e.Now() < step {
		time.Sleep(e.tick / 4)
	}
}

func (e *tcpEngine) alive(id sim.NodeID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.nodes[id]
	return ok
}

func (e *tcpEngine) peer(id sim.NodeID) *tcpPeer {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nodes[id]
}

// Fault surface. Kill closes the transport — a fail-stop process exit.
func (e *tcpEngine) Kill(id sim.NodeID) {
	e.mu.Lock()
	p := e.nodes[id]
	delete(e.nodes, id)
	e.mu.Unlock()
	if p != nil {
		_ = p.tr.Close()
		_ = p.dir.Close()
		e.mu.Lock()
		e.retiredDrops += p.tr.Dropped()
		e.mu.Unlock()
	}
}

func (e *tcpEngine) CutLink(a, b sim.NodeID)                  { e.plane.CutLink(a, b) }
func (e *tcpEngine) SetPartitionClass(id sim.NodeID, cls int) { e.plane.SetPartitionClass(id, cls) }
func (e *tcpEngine) ClearPartitions()                         { e.plane.ClearPartitions() }
func (e *tcpEngine) SetLossRate(rate float64)                 { e.plane.SetLossRate(rate) }

func (e *tcpEngine) AliveIDs() []sim.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return sortedIDs(e.nodes)
}

func (e *tcpEngine) AliveCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.nodes)
}

// spawn starts a transport-hosted node under the id and introduces it to
// every live peer (both address-book directions).
func (e *tcpEngine) spawn(id sim.NodeID) *tcpPeer {
	dc := tcpnet.DialDirectory(e.dirSrv.Addr())
	cfg := nodeConfig(core.LivenessDirectory{Directory: dc, Alive: e.alive}, e.batch, e.cover)
	node, err := core.NewNode(cfg)
	if err != nil {
		panic(fmt.Sprintf("conform: NewNode: %v", err)) // static config
	}
	node.OnDeliverHook(func(ev core.EventID, _ filter.Event) {
		e.rec.deliver(ev, node.ID())
	})
	e.mu.Lock()
	incarnation := e.incarnations[id]
	e.incarnations[id] = incarnation + 1
	e.mu.Unlock()
	tr, err := tcpnet.New(tcpnet.Config{
		ID:        id,
		Listen:    "127.0.0.1:0",
		TickEvery: e.tick,
		Seed:      e.seed ^ (int64(id)+1)<<16 ^ incarnation<<3,
		Faults:    e.plane,
	}, node)
	if err != nil {
		panic(fmt.Sprintf("conform: tcp transport %d: %v", id, err))
	}
	p := &tcpPeer{node: node, tr: tr, dir: dc}
	e.mu.Lock()
	for other, op := range e.nodes {
		tr.AddPeer(other, op.tr.Addr())
		op.tr.AddPeer(id, tr.Addr())
	}
	e.nodes[id] = p
	e.mu.Unlock()
	return p
}

func (e *tcpEngine) AddNode() sim.NodeID {
	id := e.pop.allocID()
	e.spawn(id)
	return id
}

func (e *tcpEngine) Subscribe(id sim.NodeID, sub filter.Subscription) error {
	p := e.peer(id)
	if p == nil {
		return fmt.Errorf("conform: subscribe on dead node %d", id)
	}
	var subErr error
	if err := p.tr.Do(func() { subErr = p.node.Subscribe(sub) }); err != nil {
		return err
	}
	if subErr != nil {
		return subErr
	}
	if err := e.rec.subscribe(id, sub); err != nil {
		return err
	}
	e.pop.remember(id, sub)
	return nil
}

func (e *tcpEngine) Publish(id sim.NodeID, ev core.EventID, event filter.Event) error {
	p := e.peer(id)
	if p == nil {
		return fmt.Errorf("conform: publish on dead node %d", id)
	}
	var pubErr error
	if err := p.tr.Do(func() { pubErr = p.node.Publish(ev, event) }); err != nil {
		return err
	}
	return pubErr
}

func (e *tcpEngine) PublishMany(id sim.NodeID, evs []core.EventID, events []filter.Event) error {
	p := e.peer(id)
	if p == nil {
		return fmt.Errorf("conform: publish on dead node %d", id)
	}
	var pubErr error
	if err := p.tr.Do(func() {
		for i := range evs {
			if pubErr = p.node.Publish(evs[i], events[i]); pubErr != nil {
				return
			}
		}
	}); err != nil {
		return err
	}
	return pubErr
}

func (e *tcpEngine) Restart(id sim.NodeID) {
	p := e.spawn(id)
	subs := e.pop.durable(id)
	if err := p.tr.Do(func() {
		for _, sub := range subs {
			if err := p.node.Subscribe(sub); err != nil {
				panic(fmt.Sprintf("conform: re-subscribe after restart: %v", err))
			}
		}
	}); err != nil {
		panic(fmt.Sprintf("conform: restart %d: %v", id, err))
	}
}

func (e *tcpEngine) Join() sim.NodeID {
	id := e.AddNode()
	for s := 0; s < e.pop.perNode; s++ {
		if err := e.Subscribe(id, e.pop.gen.Subscription()); err != nil {
			panic(fmt.Sprintf("conform: join subscribe: %v", err))
		}
	}
	return id
}

func (e *tcpEngine) Leave(id sim.NodeID) {
	p := e.peer(id)
	if p == nil {
		return
	}
	subs := e.pop.forget(id)
	if err := p.tr.Do(func() {
		for _, sub := range subs {
			if err := p.node.Unsubscribe(sub); err != nil {
				panic(fmt.Sprintf("conform: unsubscribe on leave: %v", err))
			}
		}
	}); err != nil {
		return // transport died mid-leave
	}
	e.rec.leave(id)
}

// StructuralSnapshot collects the node's snapshot on its transport
// goroutine — the per-peer snapshot request of the quiesce-window read.
func (e *tcpEngine) StructuralSnapshot(id sim.NodeID) []core.MembershipSnapshot {
	p := e.peer(id)
	if p == nil {
		return nil
	}
	var snaps []core.MembershipSnapshot
	if err := p.tr.Do(func() { snaps = p.node.StructuralSnapshot() }); err != nil {
		return nil // crashed between AliveIDs and the request
	}
	return snaps
}

// Corrupt applies the op on the transport goroutine via Transport.Do —
// the corruption mutates node state, which only that goroutine may touch.
func (e *tcpEngine) Corrupt(id sim.NodeID, op core.CorruptionOp) bool {
	p := e.peer(id)
	if p == nil {
		return false
	}
	var ok bool
	if err := p.tr.Do(func() { ok = p.node.ApplyCorruption(op) }); err != nil {
		return false // transport died between AliveIDs and the request
	}
	return ok
}

func (e *tcpEngine) TreeOwner(attr string) (sim.NodeID, bool) { return e.dirCli.Owner(attr) }

func (e *tcpEngine) Stats() EngineStats {
	e.mu.Lock()
	inbox := e.retiredDrops
	for _, p := range e.nodes {
		inbox += p.tr.Dropped()
	}
	e.mu.Unlock()
	loss, partition := e.plane.Dropped()
	return EngineStats{InboxDropped: inbox, FaultLoss: loss, FaultPartition: partition}
}

func (e *tcpEngine) Close() {
	e.mu.Lock()
	peers := make([]*tcpPeer, 0, len(e.nodes))
	for _, p := range e.nodes {
		peers = append(peers, p)
	}
	e.nodes = make(map[sim.NodeID]*tcpPeer)
	e.mu.Unlock()
	for _, p := range peers {
		_ = p.tr.Close()
		_ = p.dir.Close()
	}
	_ = e.dirCli.Close()
	_ = e.dirSrv.Close()
}
