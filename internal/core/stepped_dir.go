package core

import (
	"math/rand"
	"sort"
	"sync"

	"github.com/dps-overlay/dps/internal/sim"
)

// SteppedDirectory is a Directory with step-snapshot semantics, built for
// the deterministic parallel cycle executor (sim.Config.Workers > 1).
//
// The plain SharedDirectory applies every operation immediately, so the
// outcome of a Contact draw or an ownership claim depends on which node
// happened to run first within a step — an order the parallel executor
// does not (and must not) define. SteppedDirectory removes that
// dependency: while a step is executing, reads (Owner, Contact) serve
// from the state committed at the end of the previous step, and writes
// (AddContact, DropContact, ClaimOwner, ReplaceOwner) are buffered and
// applied at EndStep under fixed conflict rules. Every node therefore
// observes exactly the same directory regardless of scheduling, which
// makes simulation traces bit-identical across worker counts — including
// the sequential executor, which drives the same lifecycle.
//
// Outside a step (engine not running, e.g. harness-side Subscribe calls
// between steps) operations apply immediately, preserving the familiar
// first-claim-wins bootstrap behaviour.
//
// Conflict rules at commit, chosen for order-independence:
//
//   - ReplaceOwner beats ClaimOwner; among several same-step writers of
//     one attribute the lowest NodeID wins. A claim only lands if the
//     attribute still has no owner. Optimistic concurrent claimants that
//     lose the commit are healed by the protocol's duplicate-tree merge
//     machinery (§4.1), exactly like concurrent tree creations in a real
//     deployment.
//   - A contact both added and dropped in one step stays dropped
//     (conservative: drops come from crash observations and leaves).
//
// Contact lists are kept sorted by NodeID so a draw depends only on the
// committed membership set, never on insertion order. All methods are
// safe for concurrent use by worker goroutines.
type SteppedDirectory struct {
	mu       sync.Mutex
	deferred bool

	owners   map[string]sim.NodeID
	contacts map[string][]sim.NodeID // sorted ascending

	pendClaim map[string]sim.NodeID // lowest claimant per attr
	pendOwner map[string]sim.NodeID // lowest ReplaceOwner per attr
	pendAdd   map[string]map[sim.NodeID]bool
	pendDrop  map[string]map[sim.NodeID]bool
}

var (
	_ Directory   = (*SteppedDirectory)(nil)
	_ sim.Service = (*SteppedDirectory)(nil)
)

// NewSteppedDirectory returns an empty stepped directory. Register it on
// the engine with AddService so it learns the step boundaries.
func NewSteppedDirectory() *SteppedDirectory {
	return &SteppedDirectory{
		owners:    make(map[string]sim.NodeID),
		contacts:  make(map[string][]sim.NodeID),
		pendClaim: make(map[string]sim.NodeID),
		pendOwner: make(map[string]sim.NodeID),
		pendAdd:   make(map[string]map[sim.NodeID]bool),
		pendDrop:  make(map[string]map[sim.NodeID]bool),
	}
}

// BeginStep implements sim.Service: subsequent writes are buffered until
// EndStep and reads serve the committed snapshot.
func (d *SteppedDirectory) BeginStep(int64) {
	d.mu.Lock()
	d.deferred = true
	d.mu.Unlock()
}

// EndStep implements sim.Service: buffered writes commit under the fixed
// conflict rules and immediate mode resumes.
func (d *SteppedDirectory) EndStep(int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Ownership: ReplaceOwner first (it wins), then claims on still
	// ownerless attributes. Per-attribute values are already reduced to
	// the lowest writer, so map iteration order is immaterial.
	for attr, node := range d.pendOwner {
		d.owners[attr] = node
		delete(d.pendOwner, attr)
	}
	for attr, node := range d.pendClaim {
		if _, ok := d.owners[attr]; !ok {
			d.owners[attr] = node
		}
		delete(d.pendClaim, attr)
	}
	// Contacts: drops win over same-step adds, regardless of the real-time
	// order the two calls raced in; apart from that rule each (attr, node)
	// op is independent of every other, so no ordering is needed.
	for attr, nodes := range d.pendAdd {
		drops := d.pendDrop[attr]
		for node := range nodes {
			if !drops[node] {
				d.addLocked(attr, node)
			}
		}
		delete(d.pendAdd, attr)
	}
	for attr, nodes := range d.pendDrop {
		for node := range nodes {
			d.dropLocked(attr, node)
		}
		delete(d.pendDrop, attr)
	}
	d.deferred = false
}

// Owner implements Directory against the committed snapshot.
func (d *SteppedDirectory) Owner(attr string) (sim.NodeID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, ok := d.owners[attr]
	return id, ok
}

// ClaimOwner implements Directory. Mid-step, a claim on an ownerless
// attribute returns the claimant itself (optimistic, resolved at commit);
// otherwise the committed owner.
func (d *SteppedDirectory) ClaimOwner(attr string, node sim.NodeID) sim.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.owners[attr]; ok {
		return cur
	}
	if !d.deferred {
		d.owners[attr] = node
		return node
	}
	if cur, ok := d.pendClaim[attr]; !ok || node < cur {
		d.pendClaim[attr] = node
	}
	return node
}

// ReplaceOwner implements Directory (root healing).
func (d *SteppedDirectory) ReplaceOwner(attr string, node sim.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.deferred {
		d.owners[attr] = node
		return
	}
	if cur, ok := d.pendOwner[attr]; !ok || node < cur {
		d.pendOwner[attr] = node
	}
}

// AddContact implements Directory.
func (d *SteppedDirectory) AddContact(attr string, node sim.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.deferred {
		d.addLocked(attr, node)
		return
	}
	set := d.pendAdd[attr]
	if set == nil {
		set = make(map[sim.NodeID]bool)
		d.pendAdd[attr] = set
	}
	set[node] = true
}

// DropContact implements Directory.
func (d *SteppedDirectory) DropContact(attr string, node sim.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.deferred {
		d.dropLocked(attr, node)
		return
	}
	set := d.pendDrop[attr]
	if set == nil {
		set = make(map[sim.NodeID]bool)
		d.pendDrop[attr] = set
	}
	set[node] = true
}

// Contact implements Directory: a uniform draw over the committed, sorted
// contact list, deterministic in (committed set, caller stream).
func (d *SteppedDirectory) Contact(attr string, rng *rand.Rand) (sim.NodeID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	list := d.contacts[attr]
	if len(list) == 0 {
		return 0, false
	}
	return list[rng.Intn(len(list))], true
}

// Contacts returns a sorted copy of the committed members of a tree
// (test/diagnostic helper).
func (d *SteppedDirectory) Contacts(attr string) []sim.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]sim.NodeID, len(d.contacts[attr]))
	copy(out, d.contacts[attr])
	return out
}

// addLocked inserts node into the attr's sorted contact list (no-op on
// duplicates); membership is the sorted slice itself, probed by binary
// search. Caller holds d.mu.
func (d *SteppedDirectory) addLocked(attr string, node sim.NodeID) {
	list := d.contacts[attr]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= node })
	if i < len(list) && list[i] == node {
		return
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = node
	d.contacts[attr] = list
}

// dropLocked removes node from the attr's sorted contact list if
// present. Caller holds d.mu.
func (d *SteppedDirectory) dropLocked(attr string, node sim.NodeID) {
	list := d.contacts[attr]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= node })
	if i >= len(list) || list[i] != node {
		return
	}
	d.contacts[attr] = append(list[:i], list[i+1:]...)
}

// LivenessDirectory wraps a deployment directory with engine liveness for
// the Contact walk: the paper locates contact points with random walks,
// which traverse live nodes and therefore never return a crashed one.
// Without it, the registry accumulates dead members that nobody ever
// suspects (in leader mode only leaders monitor regular members) and
// generic publications enter the tree through corpses. Alive must be safe
// for the goroutine the directory is called from (node goroutines on the
// live engines).
type LivenessDirectory struct {
	Directory
	Alive func(sim.NodeID) bool
}

var _ Directory = LivenessDirectory{}

// Contact retries the registry draw a bounded number of times until it
// finds a live entry point, mimicking a random walk over live nodes.
// Observed corpses are reported to the directory; under the stepped
// directory the drop commits at the end of the step, so a dead entry can
// linger for the retries of one step — exactly one walk's worth of wasted
// hops, as in the paper's model. A walk that saw only corpses reports no
// entry point at all (the caller's retry machinery fires later), never a
// node it just proved dead.
func (d LivenessDirectory) Contact(attr string, rng *rand.Rand) (sim.NodeID, bool) {
	for i := 0; i < 16; i++ {
		last, ok := d.Directory.Contact(attr, rng)
		if !ok {
			return 0, false
		}
		if d.Alive(last) {
			return last, true
		}
		d.Directory.DropContact(attr, last)
	}
	return 0, false
}
