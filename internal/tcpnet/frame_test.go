package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/wire"
)

func TestTransportFrameRoundTrip(t *testing.T) {
	for _, payload := range core.WireSamples() {
		frame, err := appendTransportFrame(nil, 42, "127.0.0.1:9999", payload)
		if err != nil {
			t.Fatalf("encoding %T: %v", payload, err)
		}
		body := frame[frameHeaderLen:]
		if got := binary.BigEndian.Uint32(frame[:frameHeaderLen]); int(got) != len(body) {
			t.Fatalf("length prefix %d, body %d", got, len(body))
		}
		from, addr, back, err := decodeTransportBody(body)
		if err != nil {
			t.Fatalf("decoding %T frame: %v", payload, err)
		}
		if from != 42 || addr != "127.0.0.1:9999" {
			t.Fatalf("header round trip: from=%d addr=%q", from, addr)
		}
		if _, err := core.AppendMessage(nil, back); err != nil {
			t.Fatalf("decoded payload %T is not a protocol message: %v", back, err)
		}
	}
}

func TestTransportFrameRejectsForeignPayload(t *testing.T) {
	if _, err := appendTransportFrame(nil, 1, "", "not a protocol message"); err == nil {
		t.Fatal("foreign payload encoded")
	}
}

func TestDirFrameRoundTrip(t *testing.T) {
	reqFrame, err := appendDirReq(nil, dirReq{Op: opClaimOwner, Attr: "price", Node: 7})
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeDirReq(reqFrame[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != opClaimOwner || req.Attr != "price" || req.Node != 7 {
		t.Fatalf("req round trip = %+v", req)
	}
	respFrame, err := appendDirResp(nil, dirResp{Node: 9, OK: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeDirResp(respFrame[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Node != 9 || !resp.OK {
		t.Fatalf("resp round trip = %+v", resp)
	}
}

func TestDirFrameRejectsMalformedBodies(t *testing.T) {
	if _, err := decodeDirReq(nil); err == nil {
		t.Error("empty request body decoded")
	}
	if _, err := decodeDirReq([]byte{dirWireVersion + 1, byte(opOwner), 0, 0}); err == nil {
		t.Error("future version decoded")
	}
	if _, err := decodeDirReq([]byte{dirWireVersion, 99, 0, 0}); err == nil {
		t.Error("unknown op decoded")
	}
	good, _ := appendDirReq(nil, dirReq{Op: opOwner, Attr: "a"})
	if _, err := decodeDirReq(append(good[frameHeaderLen:], 0xAA)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := decodeDirResp([]byte{dirWireVersion, 0x02}); err == nil {
		t.Error("truncated response decoded")
	}
}

// rawDial opens a plain TCP connection to a transport's listener.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// expectClosed asserts the peer closes the connection (read returns an
// error) within the deadline.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after a malformed frame")
	}
}

// TestOversizedFrameClosesConnection pins the max-frame-size guard: a
// length prefix beyond wire.MaxFrame must terminate the connection
// without allocating the claimed size and without disturbing the node.
func TestOversizedFrameClosesConnection(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	n := startNode(t, 31, dir.Addr())

	conn := rawDial(t, n.tr.Addr())
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(wire.MaxFrame+1))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)

	// The transport keeps serving: a well-formed frame on a fresh
	// connection still reaches the node.
	if err := n.tr.Do(func() {}); err != nil {
		t.Fatalf("transport wedged after oversized frame: %v", err)
	}
}

// TestMalformedFrameClosesConnection pins the corrupt-body discipline: a
// frame whose body does not decode is a connection error, not a panic.
func TestMalformedFrameClosesConnection(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	n := startNode(t, 32, dir.Addr())

	conn := rawDial(t, n.tr.Addr())
	body := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := conn.Write(append(hdr[:], body...)); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
	if n.tr.Dropped() == 0 {
		t.Error("malformed frame should count as dropped")
	}
	if err := n.tr.Do(func() {}); err != nil {
		t.Fatalf("transport wedged after malformed frame: %v", err)
	}
}

// TestDirectoryMalformedFrameClosesConnection applies the same discipline
// to the directory service.
func TestDirectoryMalformedFrameClosesConnection(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	conn := rawDial(t, dir.Addr())
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(wire.MaxFrame+1))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)

	// The service itself survives and keeps answering fresh clients.
	c := DialDirectory(dir.Addr())
	defer c.Close()
	if got := c.ClaimOwner("a", 3); got != 3 {
		t.Fatalf("directory unusable after malformed frame: ClaimOwner = %d", got)
	}
}

// BenchmarkTransportFrameCodec measures the tcpnet encode and decode hot
// path — one full frame per representative protocol message — using the
// binary codec. The gob comparison lives in the repository root
// (BenchmarkWireCodecVsGob), outside the gob-free packages.
func BenchmarkTransportFrameCodec(b *testing.B) {
	samples := core.WireSamples()
	frames := make([][]byte, len(samples))
	for i, s := range samples {
		frame, err := appendTransportFrame(nil, 7, "127.0.0.1:7001", s)
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = frame
	}
	b.Run("encode", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = appendTransportFrame(buf[:0], 7, "127.0.0.1:7001", samples[i%len(samples)])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := decodeTransportBody(frames[i%len(frames)][frameHeaderLen:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// rawFrame returns one length-prefixed frame with an n-byte body whose
// bytes encode their frame tag and offset, so any misplaced byte shows.
func rawFrame(tag byte, n int) []byte {
	f := make([]byte, frameHeaderLen+n)
	binary.BigEndian.PutUint32(f, uint32(n))
	for i := range f[frameHeaderLen:] {
		f[frameHeaderLen+i] = tag ^ byte(i) ^ byte(i>>8)
	}
	return f
}

// readAll reads frames from src until EOF and returns copies of their
// bodies; any other error fails the test.
func readAll(t *testing.T, fr *frameReader) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		body, err := fr.next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		out = append(out, append([]byte(nil), body...))
	}
}

// chunkReader hands out its data at most chunk bytes per Read, like a
// socket whose segments end at arbitrary points.
type chunkReader struct {
	data  []byte
	chunk int
	reads int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	r.reads++
	n := min(len(p), r.chunk, len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// TestFrameReaderStream feeds the reader frame sizes around its buffer —
// frames straddling the buffer edge, one exactly the buffer size, one a
// byte over, one far larger — through reads of several granularities,
// and requires every body back intact and in order.
func TestFrameReaderStream(t *testing.T) {
	exact := frameReaderBuf - frameHeaderLen
	sizes := []int{0, 1, 100, 3000, 1500, exact, exact + 1, exact - 1, 7, 100 << 10, 2500, 2500, 2500, 64}
	var stream []byte
	var want [][]byte
	for i, n := range sizes {
		f := rawFrame(byte(i), n)
		stream = append(stream, f...)
		want = append(want, f[frameHeaderLen:])
	}
	for _, chunk := range []int{1, 3, 1000, 4096, 5000, len(stream)} {
		fr := newFrameReader(&chunkReader{data: stream, chunk: chunk})
		got := readAll(t, fr)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: read %d frames, want %d", chunk, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("chunk %d: frame %d (%d bytes) corrupted", chunk, i, sizes[i])
			}
		}
	}
}

// TestFrameReaderInPlace: a frame that fits the read buffer — up to
// exactly its size — is returned from the buffer itself, borrowing
// nothing; one byte more goes through a borrowed body buffer.
func TestFrameReaderInPlace(t *testing.T) {
	exact := frameReaderBuf - frameHeaderLen
	stream := append(rawFrame(1, exact), rawFrame(2, exact+1)...)
	fr := newFrameReader(bytes.NewReader(stream))
	if _, err := fr.next(); err != nil {
		t.Fatal(err)
	}
	if fr.big != nil {
		t.Error("a buffer-sized frame borrowed a body buffer")
	}
	if _, err := fr.next(); err != nil {
		t.Fatal(err)
	}
	if fr.big == nil {
		t.Error("a frame past the buffer was not read into a body buffer")
	}
}

// TestFrameReaderBatchesReads: many small frames arriving in one write
// are parsed from one buffered read each buffer-full, not one read per
// frame.
func TestFrameReaderBatchesReads(t *testing.T) {
	var stream []byte
	const frames = 1000
	for i := 0; i < frames; i++ {
		stream = append(stream, rawFrame(byte(i), 40)...)
	}
	src := &chunkReader{data: stream, chunk: len(stream)}
	if got := len(readAll(t, newFrameReader(src))); got != frames {
		t.Fatalf("read %d frames, want %d", got, frames)
	}
	if max := len(stream)/frameReaderBuf + 2; src.reads > max {
		t.Fatalf("%d reads for %d bytes of frames, want at most %d", src.reads, len(stream), max)
	}
}

// TestFrameReaderRetention: after a 512 KiB frame the reader keeps no
// more than a small read buffer — the body buffer is handed back on the
// next call, not kept for the connection's life.
func TestFrameReaderRetention(t *testing.T) {
	stream := append(rawFrame(1, 512<<10), rawFrame(2, 10)...)
	fr := newFrameReader(bytes.NewReader(stream))
	if body, err := fr.next(); err != nil || len(body) != 512<<10 {
		t.Fatalf("large frame: %d bytes, %v", len(body), err)
	}
	if _, err := fr.next(); err != nil {
		t.Fatal(err)
	}
	retained := fr.br.Size()
	if fr.big != nil {
		retained += cap(fr.big.Buf)
	}
	if retained > 8<<10 {
		t.Fatalf("reader retains %d bytes after a 512 KiB frame, want <= 8 KiB", retained)
	}
}

// TestFrameReaderErrors: a stream cut inside a frame — in the prefix, in
// a buffered body or in a borrowed one — is an error, never a short
// frame; an oversized prefix fails before any body buffer is taken.
func TestFrameReaderErrors(t *testing.T) {
	small, large := rawFrame(1, 100), rawFrame(2, 10<<10)
	for name, cut := range map[string][]byte{
		"prefix":     small[:2],
		"small body": small[:50],
		"large body": large[:6<<10],
	} {
		if body, err := newFrameReader(bytes.NewReader(cut)).next(); err == nil {
			t.Errorf("%s cut: returned a %d-byte frame", name, len(body))
		}
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(wire.MaxFrame+1))
	fr := newFrameReader(bytes.NewReader(hdr[:]))
	if _, err := fr.next(); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Errorf("oversized prefix: err = %v, want ErrFrameTooLarge", err)
	}
	if fr.big != nil {
		t.Error("oversized prefix borrowed a body buffer")
	}
}

// loopReader serves the same stream of frames forever without
// allocating, at most chunk bytes per Read.
type loopReader struct {
	data  []byte
	off   int
	chunk int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p[:min(len(p), r.chunk)], r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// BenchmarkFrameReader measures the transport read path from an
// in-memory stream, one frame per op (ns/op is ns/frame, allocs/op is
// allocs/frame): small protocol frames served in place from the read
// buffer, and ~32 KiB batched-events frames read through a borrowed
// body buffer. Reads return at most 64 KiB, as a loopback socket does.
func BenchmarkFrameReader(b *testing.B) {
	var small []byte
	for _, s := range core.WireSamples() {
		frame, err := appendTransportFrame(nil, 7, "127.0.0.1:7001", s)
		if err != nil {
			b.Fatal(err)
		}
		small = append(small, frame...)
	}
	for _, bc := range []struct {
		name   string
		stream []byte
		frames int
	}{
		{"small", small, len(core.WireSamples())},
		{"batched32KiB", append(rawFrame(1, 32<<10), rawFrame(2, 31<<10)...), 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			fr := newFrameReader(&loopReader{data: bc.stream, chunk: 64 << 10})
			b.SetBytes(int64(len(bc.stream) / bc.frames))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fr.next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
