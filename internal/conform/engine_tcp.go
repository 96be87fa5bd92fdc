package conform

import (
	"fmt"
	"sync"
	"time"

	"github.com/dps-overlay/dps/internal/core"
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
	*tcpnet.FaultPlane

	tick  time.Duration
	seed  int64
	began time.Time

	dirSrv *tcpnet.DirectoryServer
	dirCli *tcpnet.DirectoryClient
	// dirs holds each identity's current directory client; Kill and
	// Close hang up.
	dirs         map[sim.NodeID]*tcpnet.DirectoryClient
	incarnations map[sim.NodeID]int64
	// retiredDrops accumulates the inbox-drop counters of killed
	// incarnations, so Stats covers the whole run, not just the
	// transports alive at collection time.
	retiredDrops int64

	// mu guards trs, the live transports: node goroutines read it
	// through the liveness directory.
	mu  sync.Mutex
	trs map[sim.NodeID]*tcpnet.Transport
}

func newTCPEngine(opts Options) (*tcpEngine, error) {
	srv, err := tcpnet.ListenDirectory("127.0.0.1:0", opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("conform: directory listen: %w", err)
	}
	return &tcpEngine{
		FaultPlane:   tcpnet.NewFaultPlane(opts.Seed),
		tick:         opts.TickEvery,
		seed:         opts.Seed,
		began:        time.Now(),
		dirSrv:       srv,
		dirCli:       tcpnet.DialDirectory(srv.Addr()),
		dirs:         make(map[sim.NodeID]*tcpnet.DirectoryClient),
		incarnations: make(map[sim.NodeID]int64),
		trs:          make(map[sim.NodeID]*tcpnet.Transport),
	}, nil
}

func (e *tcpEngine) Name() string { return EngineTCP }

// Now is the harness clock: wall-clock ticks since engine start.
func (e *tcpEngine) Now() int64 { return int64(time.Since(e.began) / e.tick) }

// AwaitStep sleeps until the harness clock reaches the target tick.
func (e *tcpEngine) AwaitStep(step int64) { awaitTick(e.Now, e.tick, step) }

func (e *tcpEngine) transport(id sim.NodeID) *tcpnet.Transport {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.trs[id]
}

func (e *tcpEngine) alive(id sim.NodeID) bool { return e.transport(id) != nil }

// Kill closes the transport — a fail-stop process exit.
func (e *tcpEngine) Kill(id sim.NodeID) {
	e.mu.Lock()
	tr := e.trs[id]
	delete(e.trs, id)
	e.mu.Unlock()
	if tr != nil {
		_ = tr.Close()
		_ = e.dirs[id].Close()
		e.retiredDrops += tr.Dropped()
	}
}

func (e *tcpEngine) AliveIDs() []sim.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return sortedIDs(e.trs)
}

func (e *tcpEngine) AliveCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.trs)
}

// directory dials a fresh directory-service client for the incarnation
// about to start under id.
func (e *tcpEngine) directory(id sim.NodeID) core.Directory {
	dc := tcpnet.DialDirectory(e.dirSrv.Addr())
	e.dirs[id] = dc
	return core.LivenessDirectory{Directory: dc, Alive: e.alive}
}

// start hosts the node on a fresh transport under the id and introduces
// it to every live peer (both address-book directions). A restart is the
// same call; the incarnation count salts the transport's random stream.
func (e *tcpEngine) start(id sim.NodeID, node *core.Node, _ bool) error {
	incarnation := e.incarnations[id]
	e.incarnations[id] = incarnation + 1
	tr, err := tcpnet.New(tcpnet.Config{
		ID:        id,
		Listen:    "127.0.0.1:0",
		TickEvery: e.tick,
		Seed:      e.seed ^ (int64(id)+1)<<16 ^ incarnation<<3,
		Faults:    e.FaultPlane,
	}, node)
	if err != nil {
		return err
	}
	e.mu.Lock()
	for other, otr := range e.trs {
		tr.AddPeer(other, otr.Addr())
		otr.AddPeer(id, tr.Addr())
	}
	e.trs[id] = tr
	e.mu.Unlock()
	return nil
}

func (e *tcpEngine) do(id sim.NodeID, fn func()) error {
	tr := e.transport(id)
	if tr == nil {
		return errDead(id)
	}
	return tr.Do(fn)
}

func (e *tcpEngine) TreeOwner(attr string) (sim.NodeID, bool) { return e.dirCli.Owner(attr) }

func (e *tcpEngine) Stats() EngineStats {
	e.mu.Lock()
	inbox := e.retiredDrops
	for _, tr := range e.trs {
		inbox += tr.Dropped()
	}
	e.mu.Unlock()
	loss, partition := e.Dropped()
	return EngineStats{InboxDropped: inbox, FaultLoss: loss, FaultPartition: partition}
}

func (e *tcpEngine) Close() {
	e.mu.Lock()
	trs := e.trs
	e.trs = make(map[sim.NodeID]*tcpnet.Transport)
	e.mu.Unlock()
	for _, tr := range trs {
		_ = tr.Close()
	}
	for _, dc := range e.dirs {
		_ = dc.Close()
	}
	_ = e.dirCli.Close()
	_ = e.dirSrv.Close()
}
