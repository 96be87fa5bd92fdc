package conform

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/semtree"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/workload"
)

// recorder is the per-run delivery oracle: it mirrors every subscription
// in a semtree forest (the same ground-truth oracle the paper experiments
// use), registers each tracked event's expected recipients at publish
// time, and logs every delivery hook firing. Hook callbacks arrive on
// peer/transport goroutines for live engines, so the log is
// mutex-guarded; everything else is runner-goroutine only.
// deliverShards spreads the delivery log across independently locked
// shards (by recipient id): with the batched pipeline a whole batch of
// deliveries fires back-to-back on each of N node goroutines at tick
// boundaries, and a single log mutex becomes the contention point the
// throughput experiment would end up measuring instead of the engines.
const deliverShards = 16

// deliverShard is one lock's worth of delivery log.
type deliverShard struct {
	mu        sync.Mutex
	delivered map[core.EventID]map[sim.NodeID]bool

	// Wall-clock latency accounting for the throughput experiment:
	// one sample per (event, node) first delivery of a stamped event.
	// Conformance runs never stamp, so these stay empty there.
	latencies   []time.Duration
	deliverAt   []time.Time // arrival-ordered wall-times of stamped pairs
	lastDeliver time.Time
	pairCount   int
}

type recorder struct {
	oracle *semtree.Forest

	shards [deliverShards]deliverShard

	// pubAt is stamped by publishAt on the runner goroutine and read by
	// every delivery hook; read-mostly once the storm is underway.
	pubMu sync.RWMutex
	pubAt map[core.EventID]time.Time

	order    []core.EventID
	expected map[core.EventID]map[sim.NodeID]bool
	matching map[core.EventID]map[sim.NodeID]bool
}

func newRecorder() *recorder {
	r := &recorder{
		oracle:   semtree.New(),
		pubAt:    make(map[core.EventID]time.Time),
		expected: make(map[core.EventID]map[sim.NodeID]bool),
		matching: make(map[core.EventID]map[sim.NodeID]bool),
	}
	for i := range r.shards {
		r.shards[i].delivered = make(map[core.EventID]map[sim.NodeID]bool)
	}
	return r
}

// publishAt stamps an event's publish wall-time, arming per-delivery
// latency sampling for it in deliver.
func (r *recorder) publishAt(ev core.EventID, at time.Time) {
	r.pubMu.Lock()
	r.pubAt[ev] = at
	r.pubMu.Unlock()
}

// subscribe mirrors a subscription in the oracle.
func (r *recorder) subscribe(id sim.NodeID, sub filter.Subscription) error {
	_, err := r.oracle.Subscribe(semtree.MemberID(id), sub)
	return err
}

// leave removes a member from the oracle (graceful departure; crashes
// keep their subscriptions — expected sets filter by liveness instead).
func (r *recorder) leave(id sim.NodeID) {
	r.oracle.RemoveMember(semtree.MemberID(id))
}

// publish registers a tracked event: matching is the oracle's
// ground-truth member set, expected its restriction to nodes alive now.
func (r *recorder) publish(ev core.EventID, event filter.Event, alive []sim.NodeID) {
	liveSet := make(map[sim.NodeID]bool, len(alive))
	for _, id := range alive {
		liveSet[id] = true
	}
	match := make(map[sim.NodeID]bool)
	exp := make(map[sim.NodeID]bool)
	for m := range r.oracle.MatchingMembers(event) {
		id := sim.NodeID(m)
		match[id] = true
		if liveSet[id] {
			exp[id] = true
		}
	}
	r.order = append(r.order, ev)
	r.matching[ev] = match
	r.expected[ev] = exp
}

// deliver logs one delivery hook firing (any goroutine).
func (r *recorder) deliver(ev core.EventID, id sim.NodeID) {
	s := &r.shards[uint64(id)%deliverShards]
	s.mu.Lock()
	m := s.delivered[ev]
	if m == nil {
		m = make(map[sim.NodeID]bool)
		s.delivered[ev] = m
	}
	if !m[id] {
		m[id] = true
		s.pairCount++
		r.pubMu.RLock()
		t0, ok := r.pubAt[ev]
		r.pubMu.RUnlock()
		if ok {
			now := time.Now()
			s.latencies = append(s.latencies, now.Sub(t0))
			s.deliverAt = append(s.deliverAt, now)
			s.lastDeliver = now
		}
	}
	s.mu.Unlock()
}

// deliveredFor merges one event's delivered set across shards.
func (r *recorder) deliveredFor(ev core.EventID) map[sim.NodeID]bool {
	out := make(map[sim.NodeID]bool)
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for id := range s.delivered[ev] {
			out[id] = true
		}
		s.mu.Unlock()
	}
	return out
}

// latencySummary snapshots the latency samples of stamped events: the
// pair count, the sorted sample slice, the arrival-ordered delivery
// wall-times, and the last delivery wall-time.
func (r *recorder) latencySummary() (pairs int, sorted []time.Duration, arrivals []time.Time, last time.Time) {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		sorted = append(sorted, s.latencies...)
		arrivals = append(arrivals, s.deliverAt...)
		if s.lastDeliver.After(last) {
			last = s.lastDeliver
		}
		s.mu.Unlock()
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].Before(arrivals[j]) })
	return len(sorted), sorted, arrivals, last
}

// deliveredCount reports the total delivered pairs so far (any
// goroutine) — the drain detector's progress counter.
func (r *recorder) deliveredCount() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += s.pairCount
		s.mu.Unlock()
	}
	return n
}

// deliverySummary freezes the recorder into the run record's counters.
func (r *recorder) deliverySummary() (events int, expectedPairs, deliveredPairs, falseDeliveries int) {
	events = len(r.order)
	for _, ev := range r.order {
		expectedPairs += len(r.expected[ev])
		for id := range r.deliveredFor(ev) {
			if r.expected[ev][id] {
				deliveredPairs++
			} else if !r.matching[ev][id] {
				falseDeliveries++
			}
		}
	}
	return events, expectedPairs, deliveredPairs, falseDeliveries
}

// deliveredSets snapshots the per-event delivered sets restricted to
// expected recipients — the unit of cross-engine comparison.
func (r *recorder) deliveredSets() map[core.EventID]map[sim.NodeID]bool {
	out := make(map[core.EventID]map[sim.NodeID]bool, len(r.order))
	for _, ev := range r.order {
		got := r.deliveredFor(ev)
		set := make(map[sim.NodeID]bool, len(got))
		for id := range got {
			if r.expected[ev][id] {
				set[id] = true
			}
		}
		out[ev] = set
	}
	return out
}

// expectedCounts snapshots the per-event expected-recipient counts.
func (r *recorder) expectedCounts() map[core.EventID]int {
	out := make(map[core.EventID]int, len(r.order))
	for _, ev := range r.order {
		out[ev] = len(r.expected[ev])
	}
	return out
}

// population is the deployment-side bookkeeping every engine shares:
// sequential id allocation, durable-subscription memory for restarts, and
// the workload generator joins draw from. All access happens on the
// runner goroutine.
type population struct {
	gen     *workload.Generator
	perNode int
	nextID  sim.NodeID
	subs    map[sim.NodeID][]filter.Subscription
}

func newPopulation(gen *workload.Generator, perNode int) *population {
	return &population{
		gen:     gen,
		perNode: perNode,
		subs:    make(map[sim.NodeID][]filter.Subscription),
	}
}

func (p *population) allocID() sim.NodeID {
	p.nextID++
	return p.nextID
}

func (p *population) remember(id sim.NodeID, sub filter.Subscription) {
	p.subs[id] = append(p.subs[id], sub)
}

func (p *population) forget(id sim.NodeID) []filter.Subscription {
	subs := p.subs[id]
	delete(p.subs, id)
	return subs
}

func (p *population) durable(id sim.NodeID) []filter.Subscription {
	return p.subs[id]
}

// subscriptionPlan is the two-wave bootstrap order shared by every
// engine: the first subscription of each distinct filter goes out in a
// creators wave (every group created exactly once), the rest join
// settled groups — the same setup phase the paper uses, and the same
// waves the experiment cluster feeds.
type subscriptionPlan struct {
	creators []plannedSub
	joiners  []plannedSub
}

type plannedSub struct {
	id  sim.NodeID
	sub filter.Subscription
}

// buildPlan allocates the initial population's ids and draws its
// subscriptions from the population's generator (advancing it — join
// draws continue after the plan's).
func buildPlan(pop *population, nodes int, addNode func() sim.NodeID) subscriptionPlan {
	var plan subscriptionPlan
	seen := make(map[string]bool, nodes)
	for i := 0; i < nodes; i++ {
		id := addNode()
		for s := 0; s < pop.perNode; s++ {
			sub := pop.gen.Subscription()
			filters, err := filter.SubscriptionFilters(sub)
			if err != nil {
				panic(fmt.Sprintf("conform: generator produced an unsatisfiable subscription: %v", err))
			}
			key := filters[0].Key()
			if seen[key] {
				plan.joiners = append(plan.joiners, plannedSub{id: id, sub: sub})
			} else {
				seen[key] = true
				plan.creators = append(plan.creators, plannedSub{id: id, sub: sub})
			}
		}
	}
	return plan
}

// sortedIDs returns the keys of a node-set in ascending order.
func sortedIDs[V any](m map[sim.NodeID]V) []sim.NodeID {
	out := make([]sim.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
