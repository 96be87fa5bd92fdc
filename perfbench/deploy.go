package main

import (
	"fmt"
	"runtime"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/semtree"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/workload"
)

// deployment is a population of benchmark nodes on one engine, with the
// semtree oracle mirroring every subscription the benchmark issued.
type deployment struct {
	r      *run
	c      cluster
	nodes  []*node
	forest *semtree.Forest

	calls, callErrs int64 // Subscribe/Unsubscribe/Publish calls and errors
}

func deploy(r *run, c cluster, n int) (*deployment, error) {
	d := &deployment{r: r, c: c, forest: semtree.New()}
	for i := 1; i <= n; i++ {
		nd, err := newNode(r, sim.NodeID(i), nodeConfig(c.directory()))
		if err != nil {
			return nil, err
		}
		if err := c.add(nd); err != nil {
			return nil, fmt.Errorf("adding node %d: %w", i, err)
		}
		d.nodes = append(d.nodes, nd)
	}
	return d, nil
}

// exec runs one benchmark call on the node's goroutine and counts it.
func (d *deployment) exec(n *node, name spanName, fn func() error) error {
	var err error
	if derr := d.c.do(n, func() { err = n.call(name, fn) }); derr != nil {
		err = derr
	}
	d.calls++
	if err != nil {
		d.callErrs++
	}
	return err
}

func (d *deployment) subscribe(n *node, sub filter.Subscription) error {
	err := d.exec(n, spanSubscribe, func() error {
		n.subs = append(n.subs, sub) // live from the moment the call starts
		if err := n.core.Subscribe(sub); err != nil {
			n.subs = n.subs[:len(n.subs)-1]
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	_, err = d.forest.Subscribe(semtree.MemberID(n.id), sub)
	return err
}

// unsubscribe withdraws the node's i-th subscription.
func (d *deployment) unsubscribe(n *node, i int) error {
	var sub filter.Subscription
	err := d.exec(n, spanUnsubscribe, func() error {
		sub = n.subs[i]
		if err := n.core.Unsubscribe(sub); err != nil {
			return err
		}
		n.subs = append(n.subs[:i:i], n.subs[i+1:]...)
		return nil
	})
	if err != nil {
		return err
	}
	fs, err := filter.SubscriptionFilters(sub)
	if err != nil {
		return err
	}
	return d.forest.Unsubscribe(semtree.MemberID(n.id), fs[0])
}

func (d *deployment) publish(n *node, id core.EventID, ev filter.Event) error {
	return d.exec(n, spanPublish, func() error { return n.core.Publish(id, ev) })
}

// bootstrap issues perNode subscriptions per node in the repo's standard
// two waves — one subscription per distinct group first, so each group
// is created once, then the joiners — feeding batch subscriptions per
// step and waiting for the overlay to fall quiet after each wave.
func (d *deployment) bootstrap(gen *workload.Generator, perNode, batch int) error {
	type job struct {
		n   *node
		sub filter.Subscription
	}
	var creators, joiners []job
	seen := make(map[string]bool)
	for _, n := range d.nodes {
		for s := 0; s < perNode; s++ {
			sub := gen.Subscription()
			fs, err := filter.SubscriptionFilters(sub)
			if err != nil {
				return err
			}
			if seen[fs[0].Key()] {
				joiners = append(joiners, job{n, sub})
			} else {
				seen[fs[0].Key()] = true
				creators = append(creators, job{n, sub})
			}
		}
	}
	for _, wave := range [][]job{creators, joiners} {
		for len(wave) > 0 {
			k := min(batch, len(wave))
			for _, j := range wave[:k] {
				if err := d.subscribe(j.n, j.sub); err != nil {
					return fmt.Errorf("bootstrap subscribe: %w", err)
				}
			}
			wave = wave[k:]
			d.c.wait(1)
		}
		if err := d.quiesce(); err != nil {
			return err
		}
	}
	return nil
}

// The overlay counts as quiet once quietSteps consecutive steps pass
// without a group-building message (MsgType 3–7: createGroup,
// joinNotify, gossipSub, leave, branchUpdate) and at most one node in a
// thousand holds a membership still joining. findGroup and joinAccept
// are left out, and a few joining nodes are tolerated, because repair
// keeps probing with findGroup walks, and re-walking, in a settled
// overlay too.
const (
	quietSteps    = 20
	maxQuiesceFor = 20_000 // steps
)

// quiesce waits until the overlay is quiet.
func (d *deployment) quiesce() error {
	last, still := int64(-1), 0
	for step := 0; step < maxQuiesceFor; step++ {
		d.c.wait(1)
		var m int64
		for _, n := range d.nodes {
			if err := d.c.do(n, func() {
				for t := core.MsgCreateGroup; t <= core.MsgBranchUpdate; t++ {
					m += n.out[t]
				}
			}); err != nil {
				return err
			}
		}
		if m != last {
			last, still = m, 0
			continue
		}
		if still++; still >= quietSteps {
			joining, err := d.joiningNodes()
			if err != nil {
				return err
			}
			if joining <= len(d.nodes)/1000 {
				return nil
			}
			still = 0
		}
	}
	return fmt.Errorf("overlay not quiet after %d steps", maxQuiesceFor)
}

// joiningNodes counts nodes holding a membership that is still joining.
func (d *deployment) joiningNodes() (int, error) {
	count := 0
	for _, n := range d.nodes {
		var j bool
		if err := d.c.do(n, func() { j = hasJoining(n.core) }); err != nil {
			return 0, err
		}
		if j {
			count++
		}
	}
	return count, nil
}

func hasJoining(c *core.Node) bool {
	for _, m := range c.Inspect() {
		if m.State == "joining" {
			return true
		}
	}
	return false
}

// stateStats are the per-node state sizes after setup.
type stateStats struct {
	routingBytes, groups, viewEntries float64 // per node
	heapBytes                         float64 // per node, after a forced GC
}

func (d *deployment) state() (stateStats, error) {
	var st stateStats
	for _, n := range d.nodes {
		if err := d.c.do(n, func() {
			st.routingBytes += float64(n.core.RoutingStateBytes())
			for _, m := range n.core.Inspect() {
				st.groups++
				st.viewEntries += float64(len(m.Members) + len(m.CoLeaders) + len(m.Parent))
			}
		}); err != nil {
			return st, err
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k := float64(len(d.nodes))
	st.routingBytes /= k
	st.groups /= k
	st.viewEntries /= k
	st.heapBytes = float64(ms.HeapAlloc) / k
	return st, nil
}

// totals sums the nodes' counters.
type totals struct {
	in, out                  [nTypes]int64
	contacts, falseContacts  int64
	delivered, falseDelivery int
	dropped                  int64
}

func (t totals) sent() int64 { return sum(t.out[:]) }

func (d *deployment) totals() (totals, error) {
	var t totals
	for _, n := range d.nodes {
		if err := d.c.do(n, func() {
			for i := range t.in {
				t.in[i] += n.in[i]
				t.out[i] += n.out[i]
			}
			t.contacts += n.contacts
			t.falseContacts += n.falseContacts
			t.delivered += len(n.delivered)
			t.falseDelivery += len(n.falseDelivery)
		}); err != nil {
			return t, err
		}
		t.dropped += d.c.dropped(n)
	}
	return t, nil
}

func (t totals) minus(o totals) totals {
	for i := range t.in {
		t.in[i] -= o.in[i]
		t.out[i] -= o.out[i]
	}
	t.contacts -= o.contacts
	t.falseContacts -= o.falseContacts
	t.delivered -= o.delivered
	t.falseDelivery -= o.falseDelivery
	t.dropped -= o.dropped
	return t
}

// settle waits until no delivery has arrived for quietSteps steps, or
// maxSteps have passed.
func (d *deployment) settle(maxSteps int) error {
	last := -1
	still := 0
	for step := 0; step < maxSteps && still < quietSteps; step++ {
		d.c.wait(1)
		t, err := d.totals()
		if err != nil {
			return err
		}
		if t.delivered != last {
			last, still = t.delivered, 0
		} else {
			still++
		}
	}
	return nil
}
