package core

import (
	"testing"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// TestStructuralSnapshotIsDeepCopy pins the snapshot contract: the result
// is in canonical key order, reflects the membership state, and shares no
// mutable storage with the node.
func TestStructuralSnapshotIsDeepCopy(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.subscribe(1, "a>0 && a<100")
	c.settle(20)
	c.subscribe(2, "a>10 && a<50")
	c.settle(60)

	snaps := c.nodes[1].StructuralSnapshot()
	if len(snaps) == 0 {
		t.Fatal("owner has no memberships")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i-1].Key >= snaps[i].Key {
			t.Fatalf("snapshots out of canonical order: %q !< %q", snaps[i-1].Key, snaps[i].Key)
		}
	}
	var root *MembershipSnapshot
	for i := range snaps {
		if snaps[i].IsRoot {
			root = &snaps[i]
		}
	}
	if root == nil {
		t.Fatal("owner snapshot misses the root membership")
	}
	if root.Leader != 1 || !root.AF.IsUniversal() || root.AF.Attr() != "a" {
		t.Fatalf("root snapshot wrong: %+v", root)
	}
	if len(root.Branches) == 0 {
		t.Fatal("root snapshot misses the child branch")
	}

	// Mutating the snapshot must not touch node state.
	m := c.nodes[1].group(root.Key)
	wantMembers := len(m.members.ids())
	root.Members = append(root.Members, 999)
	root.Branches[0].Nodes = append(root.Branches[0].Nodes[:0], 999)
	if got := len(m.members.ids()); got != wantMembers {
		t.Error("snapshot aliases the membership view")
	}
	for _, b := range m.branches {
		for _, n := range b.Nodes {
			if n == 999 {
				t.Error("snapshot aliases branch contacts")
			}
		}
	}
	if c.nodes[2].StructuralSnapshot()[0].Subs != 1 {
		t.Error("subscription count missing from snapshot")
	}
}

// TestLeadershipDeferenceCycleRepair pins the StrictRepair resolution of
// crossed leadership: two members each believing the other leads bounce
// any third party's walk between themselves forever; with StrictRepair
// the lower id anchors on the first bounce and the walk settles, without
// it the walk starves and the crossed state persists.
func TestLeadershipDeferenceCycleRepair(t *testing.T) {
	key := filter.MustAttrFilter("a", filter.Gt("a", 10), filter.Lt("a", 20)).Key()
	build := func(strict bool) (*cluster, *membership, *membership) {
		c := newCluster(t, 4, func(cfg *Config) { cfg.StrictRepair = strict })
		c.subscribe(1, "a>0") // owner
		c.settle(20)
		c.subscribe(2, "a>10 && a<20")
		c.settle(40)
		c.subscribe(3, "a>10 && a<20")
		c.settle(40)
		m2, m3 := c.nodes[2].group(key), c.nodes[3].group(key)
		if m2 == nil || m3 == nil {
			t.Fatal("group did not form at both members")
		}
		// Force the pathological crossed state the chaos harness found:
		// each believes the other leads.
		m2.leader, m3.leader = 3, 2
		// A third party's walk into the group forces the bounce.
		c.subscribe(4, "a>10 && a<20")
		c.settle(120)
		return c, m2, m3
	}

	c, m2, m3 := build(true)
	if m2.leader != m3.leader {
		t.Fatalf("leadership still crossed after StrictRepair: m2→%d m3→%d", m2.leader, m3.leader)
	}
	if m2.leader != 2 {
		t.Fatalf("cycle resolved to %d, want the lower id 2", m2.leader)
	}
	if m4 := c.nodes[4].group(key); m4 == nil || m4.state != stateActive {
		t.Fatal("third party's walk did not settle after the cycle resolved")
	}

	// Paper-faithful contrast: without StrictRepair the walk starves on
	// the bounce and the crossed state persists.
	c, m2, m3 = build(false)
	if m2.leader != 3 || m3.leader != 2 {
		t.Fatalf("legacy protocol unexpectedly resolved the cycle: m2→%d m3→%d", m2.leader, m3.leader)
	}
	_ = c
}

// TestRootMirrorStaleContactWalkKeepsLeader pins the StrictRepair
// handling of a walk the root leader routes down to a stale branch
// contact that mirrors the root. The contact does not host the addressed
// group, so the walk falls back to its root mirror with the shape of a
// deferral from its own leader; it must neither read that as a
// leadership deference cycle (deposing the leader and bouncing the walk,
// as every periodic probe would do again) nor leave the stale contact in
// the leader's branch.
func TestRootMirrorStaleContactWalkKeepsLeader(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) { cfg.StrictRepair = true })
	c.subscribe(1, "a>200 && a<300") // tree owner and root leader
	c.settle(20)
	c.subscribe(2, "a>10 && a<50") // its walk passes the root: recruited as mirror
	c.settle(60)
	c.subscribe(3, "a>400 && a<500")
	c.settle(60)

	rootKey := filter.UniversalFilter("a").Key()
	x := filter.MustAttrFilter("a", filter.Gt("a", 400), filter.Lt("a", 500))
	root1, mirror := c.nodes[1].group(rootKey), c.nodes[2].group(rootKey)
	if root1 == nil || !root1.isLeaderHere(1) {
		t.Fatal("node 1 does not lead the root")
	}
	if mirror == nil || mirror.leader != 1 {
		t.Fatalf("node 2 is not a root mirror deferring to node 1 (%+v)", mirror)
	}
	if c.nodes[2].group(x.Key()) != nil {
		t.Fatal("node 2 hosts the group it must be a stale contact for")
	}
	// Make node 2 a stale contact of node 3's group at the root leader,
	// then replay the route-down of node 3's probe walk to it.
	b := root1.branches[x.Key()]
	if b == nil {
		t.Fatal("root has no branch for node 3's group")
	}
	b.Nodes = []sim.NodeID{2}
	c.engine.Env(1).Send(2, findGroup{AF: x, At: x, Subscriber: 3, Mode: RootBased, Probe: true, Hops: 1})
	c.settle(3)

	if mirror.leader != 1 {
		t.Fatalf("root mirror deposed its leader on a stale-contact walk: leader = %d", mirror.leader)
	}
	got := root1.branches[x.Key()]
	if got == nil || has(got.Nodes, 2) || !has(got.Nodes, 3) {
		t.Fatalf("root branch for node 3's group = %+v, want the stale contact 2 replaced by 3", got)
	}
}
