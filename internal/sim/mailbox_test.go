package sim

import (
	"sync"
	"testing"
	"time"
)

// recProc counts the messages it is handed and can run a hook on each.
type recProc struct {
	onMsg  func(msg any)
	counts int
}

func (*recProc) Attach(Env) {}
func (p *recProc) OnMessage(_ NodeID, msg any) {
	p.counts++
	if p.onMsg != nil {
		p.onMsg(msg)
	}
}
func (*recProc) OnTick() {}

// drain delivers every held item and reports how many ran.
func drain(m *Mailbox, p Process) int {
	n := 0
	for m.Deliver(p) {
		n++
	}
	return n
}

// TestMailboxFIFO: messages and commands run in arrival order, across
// ring growth and wrap-around.
func TestMailboxFIFO(t *testing.T) {
	m := NewMailbox(100)
	p := &recProc{}
	var order []any
	p.onMsg = func(msg any) { order = append(order, msg) }
	for i := 0; i < 40; i++ {
		if i%5 == 0 {
			i := i
			m.PutCommand(func() { order = append(order, -i) })
			continue
		}
		if !m.PutMessage(7, i) {
			t.Fatalf("message %d refused under the bound", i)
		}
		if i%3 == 0 {
			m.Deliver(p)
		}
	}
	drain(m, p)
	for i, v := range order {
		want := i
		if i%5 == 0 {
			want = -i
		}
		if v != want {
			t.Fatalf("item %d ran as %v, want %v (order %v)", i, v, want, order)
		}
	}
	if len(order) != 40 {
		t.Fatalf("ran %d items, want 40", len(order))
	}
	if m.Deliver(p) {
		t.Fatal("Deliver on an empty mailbox reported an item")
	}
}

// TestMailboxMessageBound: exactly limit messages wait while one is in
// hand; the next is refused, and a slot frees as soon as one leaves.
func TestMailboxMessageBound(t *testing.T) {
	const limit = 4
	m := NewMailbox(limit)
	admitted, refused := 0, 0
	p := &recProc{}
	p.onMsg = func(msg any) {
		if msg != "first" {
			return
		}
		// "first" is in hand: the bound counts only what waits.
		for i := 0; i < 50; i++ {
			if m.PutMessage(1, i) {
				admitted++
			} else {
				refused++
			}
		}
	}
	m.PutMessage(1, "first")
	m.Deliver(p)
	if admitted != limit || refused != 50-limit {
		t.Fatalf("admitted %d, refused %d; want %d and %d", admitted, refused, limit, 50-limit)
	}
	if m.PutMessage(1, "over") {
		t.Fatal("message admitted past the bound")
	}
	m.Deliver(p)
	if !m.PutMessage(1, "freed") {
		t.Fatal("message refused after one left the mailbox")
	}
	if got := drain(m, p); got != limit {
		t.Fatalf("drained %d, want %d", got, limit)
	}
	if NewMailbox(0).limit != 1 {
		t.Fatal("a non-positive limit must admit one message")
	}
}

// TestMailboxCommandsNeverDropped: a full mailbox still admits commands,
// and every one of them runs.
func TestMailboxCommandsNeverDropped(t *testing.T) {
	m := NewMailbox(2)
	m.PutMessage(1, "a")
	m.PutMessage(1, "b")
	ran := 0
	for i := 0; i < 100; i++ {
		m.PutCommand(func() { ran++ })
	}
	if m.PutMessage(1, "c") {
		t.Fatal("commands must not free message slots")
	}
	p := &recProc{}
	if got := drain(m, p); got != 102 {
		t.Fatalf("delivered %d items, want 102", got)
	}
	if ran != 100 || p.counts != 2 {
		t.Fatalf("ran %d commands and %d messages, want 100 and 2", ran, p.counts)
	}
}

// TestMailboxConcurrentProducers: with several producers racing one
// consumer that only delivers when woken, every item arrives, in order
// per producer — a lost wake-up would strand items and time the test
// out. Run under -race.
func TestMailboxConcurrentProducers(t *testing.T) {
	const producers, per = 4, 2000
	m := NewMailbox(producers * per)
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if i%100 == 0 {
					m.PutCommand(func() {})
				}
				if !m.PutMessage(NodeID(w), i) {
					t.Error("message refused under the bound")
					return
				}
			}
		}(w)
	}
	p := &orderProc{next: make([]int, producers)}
	timeout := time.After(20 * time.Second)
	for p.n < producers*per {
		select {
		case <-m.Wake():
			m.Deliver(p)
		case <-timeout:
			t.Fatalf("stalled after %d of %d messages: a wake-up was lost", p.n, producers*per)
		}
	}
	wg.Wait()
	if p.outOfOrder != 0 {
		t.Fatalf("%d messages overtook an earlier one from the same producer", p.outOfOrder)
	}
}

// orderProc checks that each sender's messages (ints counting up from
// 0) arrive in order.
type orderProc struct {
	next          []int
	n, outOfOrder int
}

func (*orderProc) Attach(Env) {}
func (p *orderProc) OnMessage(from NodeID, msg any) {
	if msg.(int) != p.next[from] {
		p.outOfOrder++
	}
	p.next[from] = msg.(int) + 1
	p.n++
}
func (*orderProc) OnTick() {}

// TestMailboxReleasesStorage: a burst grows the ring, draining releases
// it, and a steady trickle cycles through the kept ring without
// allocating.
func TestMailboxReleasesStorage(t *testing.T) {
	m := NewMailbox(1 << 20)
	for i := 0; i < 1000; i++ {
		m.PutMessage(1, i)
	}
	if len(m.ring) < 1000 {
		t.Fatalf("ring holds %d slots for 1000 items", len(m.ring))
	}
	p := &recProc{}
	drain(m, p)
	if m.ring != nil {
		t.Fatalf("drained mailbox kept %d slots", len(m.ring))
	}
	msg, quiet := &recProc{}, &recProc{}
	allocs := testing.AllocsPerRun(1000, func() {
		m.PutMessage(1, msg)
		m.PutMessage(1, msg)
		m.Deliver(quiet)
		m.Deliver(quiet)
	})
	if allocs != 0 {
		t.Fatalf("steady trickle allocates %.1f times per pair", allocs)
	}
	if len(m.ring) > mailboxKeep {
		t.Fatalf("trickle grew the ring to %d slots", len(m.ring))
	}
}

// BenchmarkMailbox measures one put/deliver pair on an uncontended
// mailbox: the per-message inbox cost of both live engines.
func BenchmarkMailbox(b *testing.B) {
	m := NewMailbox(4096)
	p, msg := &recProc{}, &recProc{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.PutMessage(1, msg)
		<-m.Wake()
		m.Deliver(p)
	}
	if p.counts != b.N {
		b.Fatalf("delivered %d of %d", p.counts, b.N)
	}
}
