package wire

import "sync"

// Encoder is a pooled, reusable encode buffer: the zero-copy half of the
// event pipeline. Transports append frames into Buf with the Append*
// primitives (and core.AppendMessage), hand the accumulated bytes to the
// socket in one write, then truncate — the same backing array serves
// encode and I/O, so the steady-state publish path copies nothing
// between the message structs and the kernel's send buffer.
//
// Ownership rule: the bytes in Buf belong to the Encoder. Anything that
// must outlive the next Reset/PutEncoder — a retained decoded event, a
// frame queued elsewhere — must be copied out first. The decoder side
// honours the mirror-image rule: wire.Reader.String copies, so decoded
// messages never alias a recycled buffer (pinned by
// TestPooledEncoderAliasing in internal/tcpnet).
//
// The pool is also the body buffer of frames too large for a frame
// reader's small read buffer: the reader borrows an Encoder for one such
// frame and returns it on its next read, so no connection keeps a
// buffer sized to its largest frame.
type Encoder struct {
	Buf []byte
}

// Reset truncates the buffer, retaining capacity.
func (e *Encoder) Reset() { e.Buf = e.Buf[:0] }

// Len returns the number of pending bytes; a nil Encoder holds none.
func (e *Encoder) Len() int {
	if e == nil {
		return 0
	}
	return len(e.Buf)
}

// maxRetainedCap bounds the capacity a pooled encoder may keep: one
// pathological burst must not pin megabytes in the pool forever.
const maxRetainedCap = 1 << 18

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns an empty encoder from the pool.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns an encoder to the pool. Oversized buffers are
// dropped rather than retained; the caller must not touch the encoder
// (or any slice aliasing its buffer) afterwards.
func PutEncoder(e *Encoder) {
	if e == nil || cap(e.Buf) > maxRetainedCap {
		return
	}
	encoderPool.Put(e)
}
