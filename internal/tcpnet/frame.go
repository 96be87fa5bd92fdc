package tcpnet

// Framing for both tcpnet connection kinds — transport (node↔node
// protocol messages) and directory (node↔registry requests) — on top of
// the versioned binary codec (internal/core, internal/wire), which
// replaced the gob streams this package started with.
//
// Every frame is a 4-byte big-endian length prefix followed by that many
// body bytes, with the body bounded by wire.MaxFrame on both sides: an
// oversized or malformed frame is a fatal connection error (the
// connection closes; the protocol's loss tolerance absorbs the gap), and
// a corrupt length prefix can never trigger an unbounded allocation.
//
//	transport body = from:varint addr:string message   (message = core codec)
//	directory req  = version:byte op:byte attr:string node:varint
//	directory resp = version:byte node:varint ok:bool
//
// The core message codec carries its own version byte; the directory
// bodies carry dirWireVersion.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/wire"
)

// dirWireVersion versions the directory request/response bodies.
const dirWireVersion byte = 1

// frameHeaderLen is the length prefix size.
const frameHeaderLen = 4

// finishFrame fills the length prefix reserved at the start of buf and
// returns the complete frame, or an error when the body exceeds the
// frame bound.
func finishFrame(buf []byte) ([]byte, error) {
	body := len(buf) - frameHeaderLen
	if body > wire.MaxFrame {
		return nil, fmt.Errorf("tcpnet: %w (%d bytes)", wire.ErrFrameTooLarge, body)
	}
	binary.BigEndian.PutUint32(buf[:frameHeaderLen], uint32(body))
	return buf, nil
}

// appendTransportFrame encodes one transport frame (length prefix
// included) into dst. payload must be a core protocol message.
func appendTransportFrame(dst []byte, from sim.NodeID, addr string, payload any) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = wire.AppendVarint(dst, int64(from))
	dst = wire.AppendString(dst, addr)
	dst, err := core.AppendMessage(dst, payload)
	if err != nil {
		return dst[:start], err
	}
	frame, err := finishFrame(dst[start:])
	if err != nil {
		return dst[:start], err
	}
	return dst[:start+len(frame)], nil
}

// decodeTransportBody parses one transport frame body.
func decodeTransportBody(body []byte) (from sim.NodeID, addr string, payload any, err error) {
	r := wire.NewReader(body)
	from = sim.NodeID(r.Varint())
	addr = r.String()
	if err := r.Err(); err != nil {
		return 0, "", nil, fmt.Errorf("tcpnet: decoding frame header: %w", err)
	}
	payload, err = core.DecodeMessage(body[len(body)-r.Remaining():])
	if err != nil {
		return 0, "", nil, err
	}
	return from, addr, payload, nil
}

// frameReader reads length-prefixed frames from a connection, enforcing
// the size bound before allocating. Any error — including a malformed or
// oversized frame — is terminal for the connection.
//
// Memory follows traffic: a connection keeps one small read buffer for
// its whole life. A frame that fits in it is returned in place, with no
// copy; a larger one is read into a buffer borrowed from the wire
// encoder pool and handed back on the next call, so no connection keeps
// a buffer sized to the largest frame it ever carried.
type frameReader struct {
	br  *bufio.Reader
	big *wire.Encoder // body of the last frame too large for br; nil otherwise
}

// frameReaderBuf sizes the read buffer between the connection and the
// frame parser. Reading the prefix and body straight off the socket costs
// two read syscalls per frame — ruinous for the small frames the protocol
// mostly sends; buffering coalesces the frames already in the kernel's
// receive queue into one read. Over loopback, 2–64 KiB read small frames
// equally fast and 1 KiB is measurably slower (see README), so 4 KiB
// keeps a margin at a sixteenth of the memory; frames beyond it are read
// straight into their body buffer.
const frameReaderBuf = 4 << 10

func newFrameReader(src io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(src, frameReaderBuf)}
}

// next returns the body of the next frame. The returned slice is only
// valid until the following call.
func (fr *frameReader) next() ([]byte, error) {
	if fr.big != nil {
		wire.PutEncoder(fr.big)
		fr.big = nil
	}
	hdr, err := fr.br.Peek(frameHeaderLen)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > wire.MaxFrame {
		return nil, fmt.Errorf("tcpnet: inbound %w (%d bytes)", wire.ErrFrameTooLarge, n)
	}
	if frame := frameHeaderLen + n; frame <= fr.br.Size() {
		buf, err := fr.br.Peek(frame)
		if err != nil {
			return nil, err
		}
		_, _ = fr.br.Discard(frame) // cannot fail: the bytes are buffered
		return buf[frameHeaderLen:], nil
	}
	_, _ = fr.br.Discard(frameHeaderLen)
	fr.big = wire.GetEncoder()
	if cap(fr.big.Buf) < n {
		fr.big.Buf = make([]byte, n)
	}
	body := fr.big.Buf[:n]
	if _, err := io.ReadFull(fr.br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// appendDirReq encodes one directory request frame into dst.
func appendDirReq(dst []byte, req dirReq) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = wire.AppendByte(dst, dirWireVersion)
	dst = wire.AppendByte(dst, byte(req.Op))
	dst = wire.AppendString(dst, req.Attr)
	dst = wire.AppendVarint(dst, int64(req.Node))
	frame, err := finishFrame(dst[start:])
	if err != nil {
		return dst[:start], err
	}
	return dst[:start+len(frame)], nil
}

// decodeDirReq parses one directory request body.
func decodeDirReq(body []byte) (dirReq, error) {
	r := wire.NewReader(body)
	version := r.Byte()
	var req dirReq
	req.Op = dirOp(r.Byte())
	req.Attr = r.String()
	req.Node = sim.NodeID(r.Varint())
	if err := r.Err(); err != nil {
		return dirReq{}, fmt.Errorf("tcpnet: decoding directory request: %w", err)
	}
	if version != dirWireVersion {
		return dirReq{}, fmt.Errorf("tcpnet: unsupported directory wire version %d", version)
	}
	if !r.Done() {
		return dirReq{}, fmt.Errorf("tcpnet: decoding directory request: %w", wire.ErrTrailingBytes)
	}
	if req.Op < opOwner || req.Op > opContact {
		return dirReq{}, fmt.Errorf("tcpnet: unknown directory op %d", req.Op)
	}
	return req, nil
}

// appendDirResp encodes one directory response frame into dst.
func appendDirResp(dst []byte, resp dirResp) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = wire.AppendByte(dst, dirWireVersion)
	dst = wire.AppendVarint(dst, int64(resp.Node))
	dst = wire.AppendBool(dst, resp.OK)
	frame, err := finishFrame(dst[start:])
	if err != nil {
		return dst[:start], err
	}
	return dst[:start+len(frame)], nil
}

// decodeDirResp parses one directory response body.
func decodeDirResp(body []byte) (dirResp, error) {
	r := wire.NewReader(body)
	version := r.Byte()
	var resp dirResp
	resp.Node = sim.NodeID(r.Varint())
	resp.OK = r.Bool()
	if err := r.Err(); err != nil {
		return dirResp{}, fmt.Errorf("tcpnet: decoding directory response: %w", err)
	}
	if version != dirWireVersion {
		return dirResp{}, fmt.Errorf("tcpnet: unsupported directory wire version %d", version)
	}
	if !r.Done() {
		return dirResp{}, fmt.Errorf("tcpnet: decoding directory response: %w", wire.ErrTrailingBytes)
	}
	return resp, nil
}
