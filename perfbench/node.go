package main

import (
	"reflect"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// nTypes sizes the per-MsgType counter arrays: index 0 counts payloads
// that are not protocol messages, 1..17 the protocol's message types.
const nTypes = int(core.MsgBatchedEvents) + 1

// typeByName maps a protocol message's Go type name to its MsgType.
// core names every type after its message (MsgType.String), so the
// benchmark can classify what it sees on the wire without reaching into
// the package.
var typeByName = func() map[string]core.MsgType {
	m := make(map[string]core.MsgType, nTypes)
	for t := 1; t < nTypes; t++ {
		m[core.MsgType(t).String()] = core.MsgType(t)
	}
	return m
}()

var corePkg = reflect.TypeOf(core.Config{}).PkgPath()

// typeCache classifies messages by Go type; each node owns one, so
// lookups take no lock.
type typeCache map[reflect.Type]core.MsgType

func (c typeCache) of(msg any) core.MsgType {
	t := reflect.TypeOf(msg)
	if mt, ok := c[t]; ok {
		return mt
	}
	var mt core.MsgType
	if t != nil && t.PkgPath() == corePkg {
		mt = typeByName[t.Name()]
	}
	c[t] = mt
	return mt
}

// subsystem is the core subsystem that owns a message type, as the
// kernel's dispatch table (internal/core/kernel.go) assigns it.
type subsystem int

const (
	subOther subsystem = iota
	subMembership
	subDissemination
	subRepair
	nSubsystems
)

var subsystemNames = [nSubsystems]string{"other", "membership", "dissemination", "repair"}

func subsystemOf(t core.MsgType) subsystem {
	switch {
	case t >= core.MsgFindGroup && t <= core.MsgBranchUpdate:
		return subMembership
	case t == core.MsgPublishTree || t == core.MsgPublishGroup || t == core.MsgBatchedEvents:
		return subDissemination
	case t >= core.MsgHeartbeat && t <= core.MsgRootInvite:
		return subRepair
	}
	return subOther
}

// delivery is one delivery-hook firing: the event and when it arrived
// (nanoseconds on the run clock).
type delivery struct {
	ev core.EventID
	at int64
}

// node is the benchmark's sim.Process around one core.Node. Engines call
// a process from one goroutine at a time (the cycle engine between
// steps or on the node's worker, livenet and tcpnet on the peer's
// goroutine), and the generator reaches a node only through
// cluster.do, so the fields below need no lock.
type node struct {
	id   sim.NodeID
	core *core.Node
	env  sim.Env
	run  *run
	tr   *nodeTrace // nil on untraced runs

	types typeCache
	// subs is the benchmark's record of the node's live subscriptions,
	// changed in the same call that changes the core node's.
	subs []filter.Subscription

	in, out       [nTypes]int64
	contacts      int64 // first receipts (OnEventHook)
	falseContacts int64 // first receipts matching no local subscription
	delivered     []delivery
	falseDelivery []delivery // deliveries matching no local subscription
}

func newNode(r *run, id sim.NodeID, cfg core.Config) (*node, error) {
	c, err := core.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	n := &node{id: id, core: c, run: r, types: make(typeCache)}
	if r.tracer != nil {
		n.tr = r.tracer.newNodeTrace()
	}
	c.OnEventHook(func(_ core.EventID, ev filter.Event) {
		n.contacts++
		if !n.matches(ev) {
			n.falseContacts++
		}
	})
	c.OnDeliverHook(func(id core.EventID, ev filter.Event) {
		d := delivery{ev: id, at: n.run.now()}
		if n.matches(ev) {
			n.delivered = append(n.delivered, d)
		} else {
			n.falseDelivery = append(n.falseDelivery, d)
		}
	})
	return n, nil
}

func (n *node) matches(ev filter.Event) bool {
	for _, s := range n.subs {
		if s.Matches(ev) {
			return true
		}
	}
	return false
}

// Attach implements sim.Process: the core node gets the engine's
// environment behind the benchmark's Send wrapper.
func (n *node) Attach(env sim.Env) {
	n.env = env
	n.core.Attach(nodeEnv{Env: env, n: n})
}

// OnMessage implements sim.Process.
func (n *node) OnMessage(from sim.NodeID, msg any) {
	t := n.types.of(msg)
	n.in[t]++
	if n.tr != nil {
		n.tr.onMessage(n, from, msg, t)
		return
	}
	n.core.OnMessage(from, msg)
}

// OnTick implements sim.Process.
func (n *node) OnTick() {
	if n.tr != nil {
		n.tr.onTick(n)
		return
	}
	n.core.OnTick()
}

// call runs one benchmark-issued operation on the node (publish,
// subscribe, unsubscribe), traced as a root span when tracing is on.
func (n *node) call(name spanName, fn func() error) error {
	if n.tr != nil {
		return n.tr.call(n, name, fn)
	}
	return fn()
}

// nodeEnv is the engine's sim.Env with the benchmark's Send in front.
type nodeEnv struct {
	sim.Env
	n *node
}

func (e nodeEnv) Send(to sim.NodeID, msg any) {
	n := e.n
	t := n.types.of(msg)
	n.out[t]++
	if n.tr != nil {
		n.tr.send(n, to, msg)
		return
	}
	n.env.Send(to, msg)
}
