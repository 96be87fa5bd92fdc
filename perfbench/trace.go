package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/sim"
)

// spanName names what a root span around a benchmark-issued call did.
type spanName uint8

const (
	spanPublish spanName = iota
	spanSubscribe
	spanUnsubscribe
	nCalls
)

var callNames = [nCalls]string{"publish", "subscribe", "unsubscribe"}

// span is one traced interval: a benchmark call, a handler, a tick or a
// send. Spans of one causal chain share Trace, the id of its root span:
// a publish span is the root of its event's trace, a handler span's
// parent is the send that carried its message, a send span's parent is
// the span it was sent from.
type span struct {
	ID     int64      `json:"id"`
	Parent int64      `json:"parent,omitempty"`
	Trace  int64      `json:"trace"`
	Name   string     `json:"name"`
	Node   sim.NodeID `json:"node"`
	Start  int64      `json:"start_ns"`
	End    int64      `json:"end_ns"`
}

// Spans are kept for one trace in spanSample, up to spanCap in total, so
// a traced run stays within a few tens of megabytes; the per-layer
// numbers are computed from every span, kept or not.
const (
	spanSample = 16
	spanCap    = 1 << 18
)

// Every captureEvery-th sent message, up to replayCap, is kept for the
// codec replay.
const (
	captureEvery = 16
	replayCap    = 16384
)

// tracer collects a traced run's spans and per-layer measurements.
type tracer struct {
	run    *run
	engine string
	// tickLate reports how late a node's tick ran (engine-specific).
	tickLate func(nt *nodeTrace, now int64) int64
	// stepStart is the run-clock start of the cycle engine's current step.
	stepStart atomic.Int64

	nextID atomic.Int64
	links  *linkMatcher

	// Durations in ns, shared by every node.
	handle            [nSubsystems]histogram
	tick, late, send  histogram
	subscribe, stepNs histogram

	sent     atomic.Int64
	mu       sync.Mutex
	spans    []span
	overCap  int64
	captured []any
	nodes    []*nodeTrace
}

// newTracer builds a tracer; the cluster then sets the engine-specific
// tickLate and links.dropped.
func newTracer(r *run, engine string) *tracer {
	return &tracer{run: r, engine: engine, links: newLinkMatcher(func(sim.NodeID) bool { return false })}
}

func (t *tracer) newNodeTrace() *nodeTrace {
	nt := &nodeTrace{}
	t.mu.Lock()
	t.nodes = append(t.nodes, nt)
	t.mu.Unlock()
	return nt
}

// nodeBusy is the time nodes have spent handling messages and ticks so
// far, summed over nodes: on the cycle engine, their time inside steps.
// The caller must hold every node still, as between steps.
func (t *tracer) nodeBusy() int64 {
	var b int64
	for _, nt := range t.nodes {
		b += nt.tickBusy + sum(nt.handleBusy[:])
	}
	return b
}

func (t *tracer) record(s span) {
	if s.Trace%spanSample != 0 {
		return
	}
	t.mu.Lock()
	if len(t.spans) < spanCap {
		t.spans = append(t.spans, s)
	} else {
		t.overCap++
	}
	t.mu.Unlock()
}

// nodeTrace is one node's share of the traced measurements. Like node,
// it is touched only on the node's goroutine until the run has stopped.
type nodeTrace struct {
	cur, curTrace int64 // span, and its trace, the node is executing
	sendNs        int64 // time inside engine Send during cur
	lastTick      int64

	handled    [nSubsystems]int64
	handleBusy [nSubsystems]int64
	handleSend [nSubsystems]int64
	ticks      int64
	tickBusy   int64
	tickSend   int64
	calls      [nCalls]int64
	callBusy   [nCalls]int64
	callSend   [nCalls]int64
	sends      int64
	sendBusy   int64
}

func (nt *nodeTrace) begin(t *tracer, trace int64) (id, start int64) {
	id = t.nextID.Add(1)
	if trace == 0 {
		trace = id
	}
	nt.cur, nt.curTrace, nt.sendNs = id, trace, 0
	return id, t.run.now()
}

func (nt *nodeTrace) onMessage(n *node, from sim.NodeID, msg any, mt core.MsgType) {
	t := n.run.tracer
	st, _ := t.links.received(from, n.id, t.run.now())
	id, start := nt.begin(t, st.trace)
	trace := nt.curTrace
	n.core.OnMessage(from, msg)
	end := t.run.now()
	s := subsystemOf(mt)
	t.handle[s].add(end - start)
	nt.handled[s]++
	nt.handleBusy[s] += end - start
	nt.handleSend[s] += nt.sendNs
	nt.cur = 0
	t.record(span{ID: id, Parent: st.span, Trace: trace, Name: "core." + subsystemNames[s] + "." + mt.String(),
		Node: n.id, Start: start, End: end})
}

func (nt *nodeTrace) onTick(n *node) {
	t := n.run.tracer
	id, start := nt.begin(t, 0)
	t.late.add(t.tickLate(nt, start))
	nt.lastTick = start
	n.core.OnTick()
	end := t.run.now()
	t.tick.add(end - start)
	nt.ticks++
	nt.tickBusy += end - start
	nt.tickSend += nt.sendNs
	nt.cur = 0
	t.record(span{ID: id, Trace: id, Name: "core.tick", Node: n.id, Start: start, End: end})
}

func (nt *nodeTrace) call(n *node, name spanName, fn func() error) error {
	t := n.run.tracer
	id, start := nt.begin(t, 0)
	err := fn()
	end := t.run.now()
	nt.calls[name]++
	nt.callBusy[name] += end - start
	nt.callSend[name] += nt.sendNs
	if name == spanSubscribe {
		t.subscribe.add(end - start)
	}
	nt.cur = 0
	t.record(span{ID: id, Trace: id, Name: "core." + callNames[name], Node: n.id, Start: start, End: end})
	return err
}

func (nt *nodeTrace) send(n *node, to sim.NodeID, msg any) {
	t := n.run.tracer
	id := t.nextID.Add(1)
	start := t.run.now()
	// The stamp goes in before the engine sees the message: a live
	// receiver may handle it before Send returns.
	t.links.sent(n.id, to, stamp{at: start, span: id, trace: nt.curTrace})
	n.env.Send(to, msg)
	end := t.run.now()
	t.send.add(end - start)
	nt.sends++
	nt.sendBusy += end - start
	nt.sendNs += end - start
	if k := t.sent.Add(1); k%captureEvery == 0 {
		t.mu.Lock()
		if len(t.captured) < replayCap {
			t.captured = append(t.captured, msg)
		}
		t.mu.Unlock()
	}
	t.record(span{ID: id, Parent: nt.cur, Trace: nt.curTrace, Name: t.engine + ".send",
		Node: n.id, Start: start, End: end})
}

// stamp is what the sender side of a link remembers about one send.
type stamp struct{ at, span, trace int64 }

type link struct{ from, to sim.NodeID }

// linkQueue holds one link's sends not yet received, in send order.
type linkQueue struct {
	pending  []stamp
	head     int
	excluded bool
}

// linkMatcher pairs the k-th Send on a link with the k-th receipt on it
// and records the time between them. All three engines deliver each
// link in FIFO order, so the pairing is exact until the link loses a
// message. A link is excluded from then on: once a receipt finds no send
// to match, or once the engine has counted a drop at either end.
type linkMatcher struct {
	dropped func(sim.NodeID) bool
	transit histogram
	shards  [64]struct {
		mu sync.Mutex
		m  map[link]*linkQueue
	}
}

func newLinkMatcher(dropped func(sim.NodeID) bool) *linkMatcher {
	return &linkMatcher{dropped: dropped}
}

// queue returns the link's queue with its shard locked.
func (lm *linkMatcher) queue(l link) (*linkQueue, *sync.Mutex) {
	sh := &lm.shards[uint64(l.from*31+l.to)%uint64(len(lm.shards))]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[link]*linkQueue)
	}
	q := sh.m[l]
	if q == nil {
		q = &linkQueue{}
		sh.m[l] = q
	}
	return q, &sh.mu
}

func (lm *linkMatcher) sent(from, to sim.NodeID, st stamp) {
	q, mu := lm.queue(link{from, to})
	q.pending = append(q.pending, st)
	mu.Unlock()
}

// received pops the oldest unmatched send on the link and, unless the
// link is excluded, records its transit time.
func (lm *linkMatcher) received(from, to sim.NodeID, at int64) (stamp, bool) {
	q, mu := lm.queue(link{from, to})
	defer mu.Unlock()
	if q.head == len(q.pending) {
		q.excluded = true
		return stamp{}, false
	}
	st := q.pending[q.head]
	q.head++
	if q.head == len(q.pending) {
		q.pending, q.head = q.pending[:0], 0
	}
	if !q.excluded && (lm.dropped(from) || lm.dropped(to)) {
		q.excluded = true
	}
	if q.excluded {
		return st, false
	}
	lm.transit.add(at - st.at)
	return st, true
}

// excludedLinks counts the links left out of the transit times.
func (lm *linkMatcher) excludedLinks() int {
	n := 0
	for i := range lm.shards {
		sh := &lm.shards[i]
		sh.mu.Lock()
		for _, q := range sh.m {
			if q.excluded {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
