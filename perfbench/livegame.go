package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/workload"
)

// live-game: 64 livenet nodes, Workload2 (game zones: broad filters, wide
// fan-out), one zone subscription per player. Players move to a new zone
// (unsubscribe, then subscribe) open loop at a fixed mean rate while
// events publish open loop at a fixed mean rate.
//
// Both rates are placed from measurements of this workload (EVIDENCE.md).
// Publishes run at an eighth of their saturation, about 2,500 events/s
// (the highest rate whose p99 stayed within tcp-stock's 10 ms limit in
// most runs), the share tcp-stock's nominal rate has of its own. Moves
// run at half the churn limit, about 20 moves/s: above it, subscribers
// whose own zone held still get fewer than 95% of their events, and
// the workload would measure lost deliveries rather than the subscribe
// path at work.
const (
	gameNodes = 64
	gamePubs  = 300.0 // events/s
	gameMoves = 10.0  // zone changes/s across all players
)

// A pair is judged only when the subscriber's zone was unchanged from
// settleBefore before the publish to settleAfter after it: long enough
// before for the new zone's join to finish, long enough after for the
// event to arrive before the player leaves.
const (
	settleBefore = time.Second
	settleAfter  = 250 * time.Millisecond
)

func runLiveGame(o options) (*result, error) {
	spec := workload.Workload2()
	res, err := setUp(o, population{engine: "livenet", nodes: gameNodes, perNode: 1, batch: 25, spec: spec,
		newCluster: func(r *run) (cluster, error) { return newLiveCluster(r, populationSeed), nil }})
	if err != nil {
		return nil, err
	}
	d, r := res.d, res.d.r
	defer d.c.close()

	gen := workload.MustGenerator(spec, o.seed^0x5eed)
	rng := rand.New(rand.NewSource(o.seed ^ 0x9b1d))
	start := r.now() + int64(time.Millisecond)
	end := start + int64(o.seconds*float64(time.Second))
	var ops []op
	pubRate, moveRate := gamePubs, gameMoves
	if o.rate > 0 {
		pubRate = o.rate
	}
	if o.moveRate >= 0 {
		moveRate = o.moveRate
	}
	ops = poissonOps(ops, rng, start, end, pubRate, opPublish, 0)
	if moveRate > 0 {
		ops = poissonOps(ops, rng, start, end, moveRate, opMove, 0)
	}
	ops = fixedRate(ops, start, tickEvery, int((end-start)/int64(tickEvery)), opPoll, 0)
	sortOps(ops)

	hist := newSubHistory()
	watch := map[*node]int64{} // moved players whose new zone is still joining
	var joins []int64
	var pubs []pub
	nextID := core.EventID(1)
	before, err := d.totals()
	if err != nil {
		return nil, err
	}
	var late []int64
	cpu := cpuSeconds()
	openLoop(r, ops, func(_ int, op op) {
		switch op.kind {
		case opPublish:
			n := d.nodes[rng.Intn(len(d.nodes))]
			p := pub{id: nextID, ev: gen.Event(), due: op.due}
			nextID++
			p.match = d.forest.MatchingMembers(p.ev)
			p.at = r.now()
			_ = d.publish(n, p.id, p.ev) // an error is counted by exec
			pubs = append(pubs, p)
			late = append(late, p.at-op.due)
		case opMove:
			n := d.nodes[rng.Intn(len(d.nodes))]
			next := gen.Subscription()
			issued := r.now()
			late = append(late, issued-op.due)
			hist.change(n.id, issued)
			if d.unsubscribe(n, 0) != nil || d.subscribe(n, next) != nil {
				return // counted by exec; the player keeps no zone
			}
			now := r.now()
			hist.change(n.id, now)
			watch[n] = now
		case opPoll:
			for n, since := range watch {
				var joining bool
				if d.c.do(n, func() { joining = hasJoining(n.core) }) != nil || joining {
					continue
				}
				joins = append(joins, r.now()-since)
				delete(watch, n)
			}
		}
	})
	res.addCPU(cpuSeconds()-cpu, len(pubs))
	if err := d.settle(100); err != nil {
		return nil, err
	}
	after, err := d.totals()
	if err != nil {
		return nil, err
	}
	v, err := judge(d, pubs, 1, hist.settled)
	if err != nil {
		return nil, err
	}
	res.addTraffic(v, after.minus(before), late, pubs)
	res.e2e.addPct("lat_p50_ms", v.lat[0], 0.50, 1e6, "ms")
	res.e2e.addPct("lat_p99_ms", v.lat[0], 0.99, 1e6, "ms")
	res.e2e.addPct("join_p50_ms", joins, 0.50, 1e6, "ms")
	res.e2e.addPct("join_p90_ms", joins, 0.90, 1e6, "ms")
	res.report = append(res.report, fmt.Sprintf("rates: %.0f publishes/s, %.0f moves/s over %d players; pairs judged when the zone held from %v before to %v after the publish; %d joins still in flight at the end",
		pubRate, moveRate, gameNodes, settleBefore, settleAfter, len(watch)))
	return res, res.finish()
}

// subHistory records when each node's subscriptions changed.
type subHistory struct{ changes map[sim.NodeID][]int64 }

func newSubHistory() *subHistory { return &subHistory{changes: make(map[sim.NodeID][]int64)} }

func (h *subHistory) change(id sim.NodeID, at int64) {
	h.changes[id] = append(h.changes[id], at)
}

// settled reports whether the node's subscriptions held still from
// settleBefore before at to settleAfter after it.
func (h *subHistory) settled(id sim.NodeID, at int64) bool {
	lo, hi := at-int64(settleBefore), at+int64(settleAfter)
	for _, c := range h.changes[id] {
		if c >= lo && c <= hi {
			return false
		}
	}
	return true
}
