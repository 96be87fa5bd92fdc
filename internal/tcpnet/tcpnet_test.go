package tcpnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// tcpNode bundles a core node on a TCP transport for tests.
type tcpNode struct {
	node *core.Node
	tr   *Transport
	dir  *DirectoryClient
}

func startNode(t *testing.T, id sim.NodeID, dirAddr string) *tcpNode {
	t.Helper()
	dc := DialDirectory(dirAddr)
	cfg := core.DefaultConfig()
	cfg.Directory = dc
	node, err := core.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{
		ID:        id,
		Listen:    "127.0.0.1:0",
		TickEvery: time.Millisecond,
		Seed:      int64(id),
	}, node)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = tr.Close()
		_ = dc.Close()
	})
	return &tcpNode{node: node, tr: tr, dir: dc}
}

func connectAll(nodes []*tcpNode) {
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.tr.AddPeer(b.tr.cfg.ID, b.tr.Addr())
			}
		}
	}
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func TestPubSubOverTCP(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	nodes := []*tcpNode{
		startNode(t, 1, dir.Addr()),
		startNode(t, 2, dir.Addr()),
		startNode(t, 3, dir.Addr()),
	}
	connectAll(nodes)

	var mu sync.Mutex
	got := map[sim.NodeID]int{}
	for i, n := range nodes[:2] {
		id := sim.NodeID(i + 1)
		sub, _ := filter.ParseSubscription("price>100 && price<300")
		nn := n
		if err := nn.tr.Do(func() {
			nn.node.OnDeliverHook(func(_ core.EventID, _ filter.Event) {
				mu.Lock()
				got[id]++
				mu.Unlock()
			})
			if err := nn.node.Subscribe(sub); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the joins to settle across TCP by condition, not by a
	// fixed sleep: both subscribers must hold an active membership with a
	// known leader before the publish goes out.
	settled := func() bool {
		for _, n := range nodes[:2] {
			ok := false
			nn := n
			if err := nn.tr.Do(func() {
				for _, info := range nn.node.Inspect() {
					if info.State == "active" && info.Leader != 0 {
						ok = true
					}
				}
			}); err != nil {
				return false
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if !waitUntil(t, 10*time.Second, settled) {
		t.Fatal("subscriber joins never settled")
	}

	ev, _ := filter.ParseEvent("price=200, sym=acme")
	if err := nodes[2].tr.Do(func() {
		if err := nodes[2].node.Publish(1, ev); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got[1] == 1 && got[2] == 1
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("deliveries = %v, want both subscribers", got)
	}
}

func TestTransportValidation(t *testing.T) {
	if _, err := New(Config{Listen: "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("zero ID accepted")
	}
	if _, err := New(Config{ID: 1, Listen: "256.0.0.1:bad"}, nil); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

func TestSendToUnknownPeerDrops(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	n := startNode(t, 9, dir.Addr())
	if err := n.tr.Do(func() {
		// Force a raw send to a peer the address book does not know.
		env := env{t: n.tr}
		env.Send(12345, heartbeatProbe())
	}); err != nil {
		t.Fatal(err)
	}
	if n.tr.Dropped() == 0 {
		t.Error("send to unknown peer should count as dropped")
	}
}

// heartbeatProbe returns an arbitrary payload for the drop test; the
// send fails on the unknown peer before any encoding happens.
func heartbeatProbe() any {
	ev, _ := filter.ParseEvent("x=1")
	return ev
}

// gateProc blocks in its first OnMessage until released and counts
// every message it handles.
type gateProc struct {
	release chan struct{}
	entered atomic.Bool
	handled atomic.Int64
}

func (*gateProc) Attach(sim.Env) {}
func (p *gateProc) OnMessage(sim.NodeID, any) {
	if p.handled.Add(1) == 1 {
		p.entered.Store(true)
		<-p.release
	}
}
func (*gateProc) OnTick() {}

// TestInboxOverflowDrops is the TCP twin of livenet's test of the same
// name: while the node holds one message in hand, exactly InboxSize more
// wait and the rest of a burst is dropped — no more, no fewer.
func TestInboxOverflowDrops(t *testing.T) {
	const inbox, burst = 4, 50
	slow := &gateProc{release: make(chan struct{})}
	recv, err := New(Config{ID: 2, Listen: "127.0.0.1:0", TickEvery: time.Hour, InboxSize: inbox}, slow)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	defer close(slow.release) // runs first: unblock the handler before Close waits on it
	send := startFlushTransport(t, 1)
	send.AddPeer(2, recv.Addr())
	msg := core.WireSamples()[0]

	if err := send.Do(func() { send.send(2, msg) }); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, slow.entered.Load) {
		t.Fatal("receiver never started handling the first message")
	}
	if err := send.Do(func() {
		for i := 0; i < burst; i++ {
			send.send(2, msg)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return recv.Dropped() >= burst-inbox }) {
		t.Fatalf("dropped %d of the burst, want %d", recv.Dropped(), burst-inbox)
	}
	// Commands are admitted past the bound: Do on the full inbox must
	// queue, and runs once the handler is released.
	ran := make(chan error, 1)
	go func() { ran <- recv.Do(func() {}) }()
	slow.release <- struct{}{}
	if err := <-ran; err != nil {
		t.Fatalf("Do on a full inbox: %v", err)
	}
	if got := recv.Dropped(); got != burst-inbox {
		t.Errorf("dropped %d, want exactly %d", got, burst-inbox)
	}
	if got := slow.handled.Load(); got != 1+inbox {
		t.Errorf("handled %d messages, want %d (one in hand plus the inbox)", got, 1+inbox)
	}
}

func TestDirectoryServiceRoundTrip(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	c := DialDirectory(dir.Addr())
	defer c.Close()

	if _, ok := c.Owner("a"); ok {
		t.Error("fresh directory has an owner")
	}
	if got := c.ClaimOwner("a", 7); got != 7 {
		t.Errorf("ClaimOwner = %d", got)
	}
	if got := c.ClaimOwner("a", 8); got != 7 {
		t.Error("claim displaced the owner")
	}
	c.ReplaceOwner("a", 9)
	if got, ok := c.Owner("a"); !ok || got != 9 {
		t.Errorf("owner = %d, %v", got, ok)
	}
	c.AddContact("a", 1)
	c.AddContact("a", 2)
	if id, ok := c.Contact("a", nil); !ok || (id != 1 && id != 2) {
		t.Errorf("Contact = %d, %v", id, ok)
	}
	c.DropContact("a", 1)
	c.DropContact("a", 2)
	if _, ok := c.Contact("a", nil); ok {
		t.Error("contacts should be exhausted")
	}
}

func TestDirectoryClientSurvivesServerRestartlessFailure(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := DialDirectory(dir.Addr())
	defer c.Close()
	c.AddContact("a", 1)
	_ = dir.Close()
	// Server gone: lookups degrade to not-found instead of hanging.
	if _, ok := c.Owner("a"); ok {
		t.Error("dead directory should answer not-found")
	}
}

func TestAttrFilterWireRoundTrip(t *testing.T) {
	cases := []filter.AttrFilter{
		filter.MustAttrFilter("a", filter.Gt("a", 2), filter.Lt("a", 20)),
		filter.MustAttrFilter("a", filter.EqInt("a", 4)),
		filter.MustAttrFilter("s", filter.Prefix("s", "ab")),
		filter.UniversalFilter("x"),
		filter.MustAttrFilter("a", filter.Gt("a", 10), filter.Lt("a", 5)), // empty
		{}, // zero
	}
	for _, f := range cases {
		data, err := f.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %v: %v", f, err)
		}
		var back filter.AttrFilter
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %v: %v", f, err)
		}
		if back.Key() != f.Key() {
			t.Errorf("round trip changed key: %q vs %q", back.Key(), f.Key())
		}
		if back.IsEmpty() != f.IsEmpty() || back.IsUniversal() != f.IsUniversal() {
			t.Errorf("round trip changed flags for %v", f)
		}
	}
}
