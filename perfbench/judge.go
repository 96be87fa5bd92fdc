package main

import (
	"fmt"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/semtree"
	"github.com/dps-overlay/dps/internal/sim"
)

// pub is one published event as the generator issued it.
type pub struct {
	id    core.EventID
	ev    filter.Event
	due   int64 // run clock, ns: when it was due
	at    int64 // run clock, ns: when Publish ran
	phase int
	// match is the oracle's matching set at publish time; nil when the
	// population is static and the oracle is consulted afterwards.
	match map[semtree.MemberID]bool
}

// verdict is the oracle's judgement of a set of publishes.
type verdict struct {
	expected, hit, missed int       // oracle-expected pairs and their fate
	delivered             int       // every delivered pair, judged or not
	falsePairs            int       // deliveries no subscription accounts for
	lat                   [][]int64 // per phase: due → delivery, ns, of hit pairs
	problems              []string
}

// settledFn reports whether a node's subscriptions stayed unchanged
// around a publish at the given time; static populations pass nil.
type settledFn func(id sim.NodeID, at int64) bool

// judge checks every delivery of pubs against the semtree oracle. A
// delivery to a node the oracle does not list, a duplicate, or one the
// node's own subscriptions did not match at delivery time is a false
// delivery. A pair counts as expected only where settled holds.
func judge(d *deployment, pubs []pub, phases int, settled settledFn) (verdict, error) {
	v := verdict{lat: make([][]int64, phases)}
	byID := make(map[core.EventID]*pub, len(pubs))
	for i := range pubs {
		byID[pubs[i].id] = &pubs[i]
	}
	got := make(map[core.EventID]map[sim.NodeID]int64, len(pubs))
	for _, n := range d.nodes {
		var ds, fs []delivery
		if err := d.c.do(n, func() {
			ds = append(ds, n.delivered...)
			fs = append(fs, n.falseDelivery...)
		}); err != nil {
			return v, err
		}
		for _, f := range fs {
			if byID[f.ev] != nil {
				v.falsePairs++
				v.problems = append(v.problems, fmt.Sprintf("event %d delivered to node %d, which had no matching subscription", f.ev, n.id))
			}
		}
		for _, x := range ds {
			if byID[x.ev] == nil {
				continue // not an event of this judgement
			}
			m := got[x.ev]
			if m == nil {
				m = make(map[sim.NodeID]int64)
				got[x.ev] = m
			}
			if _, dup := m[n.id]; dup {
				v.falsePairs++
				v.problems = append(v.problems, fmt.Sprintf("event %d delivered twice to node %d", x.ev, n.id))
				continue
			}
			m[n.id] = x.at
			v.delivered++
		}
	}
	for i := range pubs {
		p := &pubs[i]
		match := p.match
		if match == nil {
			match = d.forest.MatchingMembers(p.ev)
		}
		for id := range got[p.id] {
			if settled == nil && !match[semtree.MemberID(id)] {
				v.falsePairs++
				v.problems = append(v.problems, fmt.Sprintf("event %d delivered to node %d, which the oracle does not list", p.id, id))
			}
		}
		for m := range match {
			id := sim.NodeID(m)
			if settled != nil && !settled(id, p.at) {
				continue
			}
			v.expected++
			at, ok := got[p.id][id]
			if !ok {
				v.missed++
				continue
			}
			v.hit++
			v.lat[p.phase] = append(v.lat[p.phase], at-p.due)
		}
	}
	if len(v.problems) > 5 {
		v.problems = append(v.problems[:5], fmt.Sprintf("... and %d more", len(v.problems)-5))
	}
	return v, nil
}
