package sim

import "sync"

// Mailbox is the inbox of a node hosted on a live engine (livenet,
// tcpnet): many producers — the hub's router, connection readers, Do
// callers — hand it messages and commands, and the node's one goroutine
// runs them in arrival order, one per loop iteration so that ticks
// interleave with a backlog.
//
// Storage follows what the mailbox holds, not what it may hold: a ring
// that doubles when full and is released when it drains past a few
// dozen slots, so an idle node keeps no inbox memory worth counting
// however large its bound.
//
// The bound applies to messages only: at most limit messages wait, plus
// the one the node has in hand; further messages are refused (the
// engines count them as drops — loss the protocol tolerates). Commands
// are never refused: each caller blocks until its command has run, so
// their number is bounded by the callers.
type Mailbox struct {
	mu    sync.Mutex
	ring  []mail // len is a power of two, or 0 when released
	head  int    // index of the oldest item
	n     int    // items held
	msgs  int    // messages among them
	limit int

	// wake holds a token whenever items are held (spurious tokens are
	// harmless: Deliver then reports false).
	wake chan struct{}
}

// mail is one unit of node work: a message, or a command when cmd is set.
type mail struct {
	from NodeID
	msg  any
	cmd  func()
}

// mailboxKeep is the ring capacity a drained mailbox keeps: enough for
// a steady trickle to cycle without allocating, too little to matter per
// node. Larger rings are released on drain.
const mailboxKeep = 32

// NewMailbox returns an empty mailbox admitting at most limit queued
// messages (limit < 1 admits one).
func NewMailbox(limit int) *Mailbox {
	if limit < 1 {
		limit = 1
	}
	return &Mailbox{limit: limit, wake: make(chan struct{}, 1)}
}

// Wake returns the channel that carries a token while items are held.
// The consumer selects on it and calls Deliver once per token.
func (m *Mailbox) Wake() <-chan struct{} { return m.wake }

// PutMessage queues a message from a peer. It reports false, queuing
// nothing, when limit messages already wait.
func (m *Mailbox) PutMessage(from NodeID, msg any) bool {
	m.mu.Lock()
	if m.msgs >= m.limit {
		m.mu.Unlock()
		return false
	}
	m.msgs++
	m.push(mail{from: from, msg: msg})
	return true
}

// PutCommand queues fn to run on the consumer's goroutine. Commands are
// admitted past the message bound.
func (m *Mailbox) PutCommand(fn func()) {
	m.mu.Lock()
	m.push(mail{cmd: fn})
}

// push appends one item and signals the consumer; called with mu held,
// returns with it released.
func (m *Mailbox) push(it mail) {
	if m.n == len(m.ring) {
		m.grow()
	}
	m.ring[(m.head+m.n)&(len(m.ring)-1)] = it
	m.n++
	first := m.n == 1
	m.mu.Unlock()
	if first {
		m.signal()
	}
}

// grow doubles the ring, unwrapping the held items to its start.
func (m *Mailbox) grow() {
	size := 2 * len(m.ring)
	if size == 0 {
		size = 8
	}
	ring := make([]mail, size)
	k := copy(ring, m.ring[m.head:])
	copy(ring[k:], m.ring[:m.head])
	m.ring, m.head = ring, 0
}

// Deliver runs the oldest item on p — a command runs itself, a message
// goes to p.OnMessage — and reports false when there was none. The item
// leaves the mailbox before it runs, so a slow handler holds one item
// in hand while the bound counts the rest.
func (m *Mailbox) Deliver(p Process) bool {
	m.mu.Lock()
	if m.n == 0 {
		m.mu.Unlock()
		return false
	}
	it := m.ring[m.head]
	m.ring[m.head] = mail{}
	m.head = (m.head + 1) & (len(m.ring) - 1)
	m.n--
	if it.cmd == nil {
		m.msgs--
	}
	more := m.n > 0
	if !more && len(m.ring) > mailboxKeep {
		m.ring, m.head = nil, 0
	}
	m.mu.Unlock()
	if more {
		m.signal() // the consumer took this item's token
	}
	if it.cmd != nil {
		it.cmd()
	} else {
		p.OnMessage(it.from, it.msg)
	}
	return true
}

// signal leaves a token on wake unless one is already there.
func (m *Mailbox) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}
