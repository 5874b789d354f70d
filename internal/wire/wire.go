// Package wire defines the rpxd wire protocol: a length-prefixed binary
// message framing over a byte stream (TCP in production, net.Pipe in tests)
// that carries rhythmic-pixel session traffic — label updates in, raw frames
// in, capture statistics and reconstructed pixels out.
//
// Every message is framed as
//
//	uint32 payload length (little endian) | uint8 message type | payload
//
// and the first message on a connection must be HELLO, which carries the
// protocol magic and version plus the session geometry the client wants to
// negotiate. Readers enforce a per-message payload cap so a malformed or
// hostile peer cannot make the receiver allocate unbounded memory; writers
// refuse to emit messages above the same cap. Encoded frames travel in the
// same RPXE container the .rpxs stream format uses (core.EncodedFrame.WriteTo
// / core.ReadEncodedFrame), so any encoded-frame transport — file, socket, or
// pipe — shares one framing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/region"
)

// ProtoMagic identifies the rpxd protocol in the HELLO message.
const ProtoMagic = 0x52505844 // "RPXD"

// ProtoVersion is the one protocol revision this package speaks. HELLO
// carries it and receivers accept it by exact match: any other version
// fails with a typed *VersionError, so framing changes fail loudly. Every
// message type below is legal in this revision — request/reply, the
// streaming push mode, and in-stream label feedback — and every encoded
// frame on the wire (FRAME_PUSH) is the raw RPXE v1 container that .rpxs
// files use.
const ProtoVersion = 10

// DefaultMaxPayload caps a single message payload (32 MiB): comfortably
// above a 1080p RGB frame plus metadata, far below an OOM.
const DefaultMaxPayload = 32 << 20

// headerSize is the fixed message prefix: u32 payload length + u8 type.
const headerSize = 5

// Message types. Requests flow client to server, replies server to client.
const (
	// MsgHello opens a connection: protocol magic/version + session config.
	MsgHello byte = 1
	// MsgHelloAck confirms the session: session id + negotiated payload cap.
	MsgHelloAck byte = 2
	// MsgSetLabels installs a region-label workload.
	MsgSetLabels byte = 3
	// MsgAck is the empty success reply (SET_LABELS, CLOSE).
	MsgAck byte = 4
	// MsgCapture carries one raw raster-scan frame to encode.
	MsgCapture byte = 5
	// MsgCaptureAck returns the CaptureStats of an encode.
	MsgCaptureAck byte = 6
	// MsgDecode requests the full reconstructed newest frame.
	MsgDecode byte = 7
	// MsgFrame returns reconstructed pixels.
	MsgFrame byte = 9

	// Types 8 and 10-13 are reserved: up to protocol 8 they were
	// DECODE_WINDOW, STATS, STATS_ACK, GET_ENCODED and ENCODED, so they are
	// not reused for anything else. A server answers them as it answers any
	// unknown type, with a PROTO error.

	// MsgClose ends the session gracefully.
	MsgClose byte = 14
	// MsgError is the failure reply: code + human-readable message.
	MsgError byte = 15

	// Streaming push mode. A SUBSCRIBE switches the connection from
	// request/reply to push mode: the server sends FRAME_PUSH messages as
	// frames are produced — never beyond the credits the client has
	// granted — until the client UNSUBSCRIBEs (acknowledged with ACK after
	// the last push) or the stream ends with an ERROR.

	// MsgSubscribe attaches the connection to a session's encoded-frame
	// stream with an initial credit window and a batching bound.
	MsgSubscribe byte = 16
	// MsgSubscribeAck confirms a subscription: subscription id + next
	// sequence number the stream will observe.
	MsgSubscribeAck byte = 17
	// MsgCredit grants the server more push credits (client to server).
	MsgCredit byte = 18
	// MsgFramePush carries up to Batch encoded frames with their capture
	// statistics and sequence numbers (server to client, unsolicited).
	MsgFramePush byte = 19
	// MsgUnsubscribe ends the subscription; the server flushes frames
	// already accepted against credit, then replies ACK.
	MsgUnsubscribe byte = 20

	// Closed-loop label feedback. While subscribed, a client may push a
	// region-label workload back to the subscription's target session; the
	// reply rides the push stream as its own message type (never
	// ACK/ERROR, which gateways and clients treat as stream-terminal).

	// MsgStreamLabels installs a region-label workload on the
	// subscription's target session (client to server, while streaming).
	MsgStreamLabels byte = 21
	// MsgLabelsApplied acknowledges STREAM_LABELS with the first frame
	// sequence number captured under the new labels, or a rejection code.
	MsgLabelsApplied byte = 22
)

// Error codes carried by MsgError.
const (
	// CodeProto is a protocol violation (bad magic, version, framing).
	CodeProto uint16 = 1
	// CodeBadRequest is a structurally valid but unsatisfiable request.
	CodeBadRequest uint16 = 2

	// Code 3 is reserved: up to protocol 7 it was BACKLOG, the reply of a
	// full session request queue, so it is not reused for anything else.

	// CodeSessionLimit means the server is at its session cap.
	CodeSessionLimit uint16 = 4
	// CodeTooLarge means a message exceeded the payload cap.
	CodeTooLarge uint16 = 5
	// CodeInternal is an unexpected server-side failure.
	CodeInternal uint16 = 6
	// CodeGeometry means the HELLO geometry was rejected at handshake: a
	// session whose CAPTURE/FRAME payloads cannot fit the negotiated payload
	// cap would fail every frame after accepting the connection, so the
	// server refuses it up front.
	CodeGeometry uint16 = 7
	// CodeUnavailable means a gateway could not complete the request against
	// any backend: the routed rpxd died mid-request and either the request
	// was not safely retryable (CAPTURE) or no healthy survivor could take
	// the session. The session itself may still be healthy — rpxgw migrates
	// it before replying — so the client may simply continue.
	CodeUnavailable uint16 = 8
)

// ErrTooLarge is returned when a message payload exceeds the reader's or
// writer's cap.
var ErrTooLarge = errors.New("wire: message exceeds payload cap")

// VersionError is the typed rejection of a HELLO whose protocol version is
// not ProtoVersion. It is distinguishable from other handshake failures
// (errors.As) so clients and gateways can report a protocol mismatch
// rather than a generic rejection.
type VersionError struct {
	// Got is the version the HELLO carried.
	Got uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: unsupported protocol version %d (speak %d)", e.Got, ProtoVersion)
}

// RemoteError is a server-reported failure decoded from MsgError.
type RemoteError struct {
	Code    uint16
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote error %d: %s", e.Code, e.Message)
}

// WriteMessage frames one message onto w. Payloads above maxPayload (0 means
// DefaultMaxPayload) fail with ErrTooLarge before any bytes are written.
// Header and payload are handed to the writer as one vectored write
// (net.Buffers), so on a *net.TCPConn the whole message leaves in a single
// writev syscall and a reader never observes a header without its payload.
//
// WriteMessage itself is not safe for concurrent writers on one conn — two
// goroutines can still interleave whole messages' bytes only if the writer
// below splits them (bufio does). Connections with concurrent writers (the
// push publisher sharing a conn with a reply path) must funnel through a
// MessageWriter, which serializes messages under its own mutex.
func WriteMessage(w io.Writer, typ byte, payload []byte, maxPayload int) error {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), maxPayload)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	hdr[4] = typ
	if len(payload) == 0 {
		_, err := w.Write(hdr[:])
		return err
	}
	vec := net.Buffers{hdr[:], payload}
	_, err := vec.WriteTo(w)
	return err
}

// MessageWriter serializes framed messages onto a shared writer. It exists
// for connections with more than one writing goroutine — the server's
// FRAME_PUSH publisher and its reply path, the client's CREDIT grants racing
// round-trip requests — where per-message atomicity must hold: a message's
// header and payload always reach the wire contiguously, never interleaved
// with another goroutine's message.
//
// Each message is assembled into a reusable vector (header, then the
// payload's parts) and handed to the writer in one net.Buffers.WriteTo — a
// single writev syscall on a *net.TCPConn — so the steady-state write path
// performs zero allocations and never copies a payload.
type MessageWriter struct {
	mu     sync.Mutex
	w      io.Writer
	hdr    [headerSize]byte
	vecbuf [][]byte
	// vec is the reusable net.Buffers handed to WriteTo; it lives in the
	// struct (not a local) because WriteTo's pointer receiver would
	// otherwise force a per-message heap escape.
	vec net.Buffers
}

// NewMessageWriter returns a MessageWriter framing messages onto w.
func NewMessageWriter(w io.Writer) *MessageWriter {
	return &MessageWriter{w: w}
}

// WriteMessage frames one message, atomically with respect to other
// writes on the same MessageWriter. The payload is fully consumed before
// the call returns; the caller may reuse it immediately.
func (mw *MessageWriter) WriteMessage(typ byte, payload []byte, maxPayload int) error {
	return mw.WriteMessageVec(typ, [][]byte{payload}, maxPayload)
}

// WriteMessageVec frames one message whose payload is the concatenation of
// parts, without copying them: the parts follow the header in the same
// vectored write. The parts must not change until the call returns, and
// nothing references them afterwards. Payloads above maxPayload (0 means
// DefaultMaxPayload) fail with ErrTooLarge before any bytes are written.
func (mw *MessageWriter) WriteMessageVec(typ byte, parts [][]byte, maxPayload int) error {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > maxPayload {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, n, maxPayload)
	}
	mw.mu.Lock()
	defer mw.mu.Unlock()
	binary.LittleEndian.PutUint32(mw.hdr[:], uint32(n))
	mw.hdr[4] = typ
	mw.vecbuf = append(mw.vecbuf[:0], mw.hdr[:])
	for _, p := range parts {
		if len(p) > 0 {
			mw.vecbuf = append(mw.vecbuf, p)
		}
	}
	mw.vec = mw.vecbuf
	_, err := mw.vec.WriteTo(mw.w)
	clear(mw.vecbuf) // do not pin the payload past the write
	mw.vec = nil
	return err
}

// readChunk bounds how far a payload read extends its buffer beyond the
// bytes that have actually arrived, mirroring the RPXE reader: a hostile
// length prefix on a truncated stream costs at most one spare chunk, not an
// up-front allocation of the claimed length.
const readChunk = 1 << 20

// ReadMessage reads one framed message from r into a freshly allocated
// payload buffer. The length prefix is validated against the cap (0 means
// DefaultMaxPayload) before any allocation, and the buffer grows in
// readChunk steps as bytes arrive. Use ReadMessageInto to amortize the
// payload buffer across a connection's messages.
func ReadMessage(r io.Reader, maxPayload int) (typ byte, payload []byte, err error) {
	var buf []byte
	return ReadMessageInto(r, &buf, maxPayload)
}

// ReadMessageInto reads one framed message from r, placing the payload in
// *buf (grown as needed, reused otherwise) and returning a slice of it.
// The returned payload is valid only until the next ReadMessageInto with
// the same buf; callers that retain it must copy.
//
// Reuse is what makes the server's steady-state read path allocation-free:
// each connection owns one buffer that every request payload lands in, and
// the request is fully consumed before the next read overwrites it.
func ReadMessageInto(r io.Reader, buf *[]byte, maxPayload int) (typ byte, payload []byte, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	b := *buf
	if cap(b) < headerSize {
		b = make([]byte, headerSize, 4096)
		*buf = b
	}
	b = b[:headerSize]
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(b))
	typ = b[4]
	if n > maxPayload {
		return typ, nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, maxPayload)
	}
	if n == 0 {
		return typ, nil, nil
	}
	// Fill [0, n) of the buffer, extending by at most readChunk beyond the
	// bytes actually read so far (the header bytes are overwritten — they
	// are already decoded).
	filled := 0
	b = b[:0]
	for filled < n {
		m := min(readChunk, n-filled)
		if cap(b) < filled+m {
			b = append(b[:filled], make([]byte, m)...)
		} else {
			b = b[:filled+m]
		}
		if _, err := io.ReadFull(r, b[filled:]); err != nil {
			*buf = b[:0]
			return typ, nil, fmt.Errorf("wire: short payload: %w", err)
		}
		filled += m
	}
	*buf = b
	return typ, b, nil
}

// Hello is the session-opening handshake payload. On the wire it is
// prefixed with ProtoMagic and ProtoVersion. A session is its geometry:
// everything else about its pipeline, the decoder's history depth
// included, is fixed server-side, so a HELLO can size nothing but the
// frames it describes.
type Hello struct {
	// W, H are the session frame dimensions.
	W, H int
	// Format is the pixel format (Gray8, RGB24, YUV444).
	Format frame.Format
}

// helloSize is the HELLO payload length: magic, version, then the fields.
const helloSize = 4 + 4 + 4 + 4 + 1

// AppendHello appends a HELLO payload to dst, prefixed with magic and
// ProtoVersion.
func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, ProtoMagic)
	dst = binary.LittleEndian.AppendUint32(dst, ProtoVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.W))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.H))
	return append(dst, byte(h.Format))
}

// MarshalHello encodes a HELLO payload into a fresh buffer.
func MarshalHello(h Hello) []byte { return AppendHello(nil, h) }

// UnmarshalHello validates magic and version and decodes the handshake.
// The version is checked before the length, so a HELLO from any other
// revision fails with *VersionError whatever its layout.
func UnmarshalHello(b []byte) (Hello, error) {
	if len(b) < 8 {
		return Hello{}, fmt.Errorf("wire: HELLO payload is %d bytes, want at least 8", len(b))
	}
	if m := binary.LittleEndian.Uint32(b); m != ProtoMagic {
		return Hello{}, fmt.Errorf("wire: bad protocol magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != ProtoVersion {
		return Hello{}, &VersionError{Got: v}
	}
	if len(b) != helloSize {
		return Hello{}, fmt.Errorf("wire: HELLO payload is %d bytes, want %d", len(b), helloSize)
	}
	h := Hello{
		W:      int(binary.LittleEndian.Uint32(b[8:])),
		H:      int(binary.LittleEndian.Uint32(b[12:])),
		Format: frame.Format(b[16]),
	}
	switch h.Format {
	case frame.Gray8, frame.RGB24, frame.YUV444:
	default:
		return Hello{}, fmt.Errorf("wire: format %d not streamable", b[16])
	}
	if h.W <= 0 || h.H <= 0 || h.W > 1<<15 || h.H > 1<<15 {
		return Hello{}, fmt.Errorf("wire: unreasonable session geometry %dx%d", h.W, h.H)
	}
	return h, nil
}

// HelloAck confirms a negotiated session.
type HelloAck struct {
	// SessionID identifies the session in server statistics.
	SessionID uint64
	// MaxPayload is the per-message payload cap both sides must honour.
	MaxPayload int
}

// helloAckSize is the HELLO_ACK payload length: u64 session id + u32 cap.
const helloAckSize = 8 + 4

// AppendHelloAck appends a HELLO acknowledgment to dst.
func AppendHelloAck(dst []byte, a HelloAck) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, a.SessionID)
	return binary.LittleEndian.AppendUint32(dst, uint32(a.MaxPayload))
}

// MarshalHelloAck encodes a HELLO acknowledgment into a fresh buffer.
func MarshalHelloAck(a HelloAck) []byte { return AppendHelloAck(nil, a) }

// UnmarshalHelloAck decodes a HELLO acknowledgment.
func UnmarshalHelloAck(b []byte) (HelloAck, error) {
	if len(b) != helloAckSize {
		return HelloAck{}, fmt.Errorf("wire: HELLO_ACK payload is %d bytes, want %d", len(b), helloAckSize)
	}
	a := HelloAck{
		SessionID:  binary.LittleEndian.Uint64(b),
		MaxPayload: int(binary.LittleEndian.Uint32(b[8:])),
	}
	if a.MaxPayload <= 0 {
		return HelloAck{}, fmt.Errorf("wire: non-positive payload cap %d", a.MaxPayload)
	}
	return a, nil
}

// Handshake writes a HELLO payload on a freshly dialed connection and reads
// the reply from r, which buffers conn. On success it returns the parsed
// acknowledgment plus the raw HELLO_ACK payload, which a forwarder relays
// verbatim. Taking the payload rather than a Hello lets a forwarder replay
// exactly the bytes its client sent. A server-side rejection is returned as
// an error wrapping the *RemoteError, so callers can tell it from a
// transport failure with errors.As.
func Handshake(conn net.Conn, r io.Reader, hello []byte, maxPayload int, timeout time.Duration) (HelloAck, []byte, error) {
	conn.SetWriteDeadline(time.Now().Add(timeout))
	if err := WriteMessage(conn, MsgHello, hello, maxPayload); err != nil {
		return HelloAck{}, nil, fmt.Errorf("send handshake: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	typ, payload, err := ReadMessage(r, maxPayload)
	if err != nil {
		return HelloAck{}, nil, fmt.Errorf("read handshake: %w", err)
	}
	switch typ {
	case MsgHelloAck:
	case MsgError:
		if re, uerr := UnmarshalError(payload); uerr == nil {
			return HelloAck{}, nil, fmt.Errorf("handshake rejected: %w", re)
		}
		return HelloAck{}, nil, errors.New("handshake rejected")
	default:
		return HelloAck{}, nil, fmt.Errorf("unexpected handshake reply type %d", typ)
	}
	ack, err := UnmarshalHelloAck(payload)
	if err != nil {
		return HelloAck{}, nil, err
	}
	return ack, payload, nil
}

// labelSize is the wire size of one region label: seven int32 fields.
const labelSize = 7 * 4

// AppendLabels appends a region-label list payload to dst.
func AppendLabels(dst []byte, labels region.List) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(labels)))
	for _, l := range labels {
		for _, v := range [7]int{l.X, l.Y, l.W, l.H, l.Stride, l.Skip, l.Phase} {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(v)))
		}
	}
	return dst
}

// MarshalLabels encodes a region-label list into a fresh buffer.
func MarshalLabels(labels region.List) []byte { return AppendLabels(nil, labels) }

// UnmarshalLabels decodes a region-label list. It checks only framing; the
// server's driver path validates the labels against session geometry.
func UnmarshalLabels(b []byte) (region.List, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wire: SET_LABELS payload is %d bytes, want >= 4", len(b))
	}
	// Bound the untrusted count by what the payload can actually carry
	// before any arithmetic: 4+n*labelSize overflows int on 32-bit hosts,
	// which would let a crafted count pass the length check below and reach
	// the allocation with a huge n.
	n64 := int64(binary.LittleEndian.Uint32(b))
	if max := int64(len(b)-4) / labelSize; n64 > max {
		return nil, fmt.Errorf("wire: SET_LABELS claims %d labels, payload fits %d", n64, max)
	}
	n := int(n64)
	if want := 4 + n*labelSize; len(b) != want {
		return nil, fmt.Errorf("wire: SET_LABELS payload is %d bytes for %d labels, want %d", len(b), n, want)
	}
	labels := make(region.List, n)
	off := 4
	next := func() int {
		v := int(int32(binary.LittleEndian.Uint32(b[off:])))
		off += 4
		return v
	}
	for i := range labels {
		labels[i] = region.Label{
			X: next(), Y: next(), W: next(), H: next(),
			Stride: next(), Skip: next(), Phase: next(),
		}
	}
	return labels, nil
}

// CaptureAck carries the capture statistics of one encoded frame.
type CaptureAck struct {
	FrameIndex    int
	EncodedPixels int
	EncodedBytes  int
	PixelFraction float64
}

// AppendCaptureAck appends capture statistics to dst.
func AppendCaptureAck(dst []byte, a CaptureAck) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.FrameIndex))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.EncodedPixels))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.EncodedBytes))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(a.PixelFraction))
}

// MarshalCaptureAck encodes capture statistics into a fresh buffer.
func MarshalCaptureAck(a CaptureAck) []byte { return AppendCaptureAck(nil, a) }

// UnmarshalCaptureAck decodes capture statistics.
func UnmarshalCaptureAck(b []byte) (CaptureAck, error) {
	if len(b) != 20 {
		return CaptureAck{}, fmt.Errorf("wire: CAPTURE_ACK payload is %d bytes, want 20", len(b))
	}
	return CaptureAck{
		FrameIndex:    int(binary.LittleEndian.Uint32(b)),
		EncodedPixels: int(binary.LittleEndian.Uint32(b[4:])),
		EncodedBytes:  int(binary.LittleEndian.Uint32(b[8:])),
		PixelFraction: math.Float64frombits(binary.LittleEndian.Uint64(b[12:])),
	}, nil
}

// frameHeaderSize prefixes a FRAME payload: u32 w, u32 h, u8 format.
const frameHeaderSize = 9

// FramePayloadSize returns the size in bytes of the FRAME message payload
// for the given geometry — the largest message a session of that geometry is
// guaranteed to produce (a CAPTURE payload is 9 bytes smaller). Servers use
// it to reject HELLO geometries whose replies could never fit the payload
// cap. The result is int64 so 32k×32k RGB sessions cannot overflow 32-bit
// hosts.
func FramePayloadSize(w, h int, f frame.Format) int64 {
	return frameHeaderSize + int64(w)*int64(h)*int64(f.BytesPerPixel())
}

// AppendFrame appends a reconstructed frame (header + raster pixels) to dst.
func AppendFrame(dst []byte, fr *frame.Frame) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(fr.W))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(fr.H))
	dst = append(dst, byte(fr.Format))
	return append(dst, fr.Pix...)
}

// MarshalFrame encodes a reconstructed frame into a fresh buffer.
func MarshalFrame(fr *frame.Frame) []byte { return AppendFrame(nil, fr) }

// UnmarshalFrame decodes a FRAME payload, validating the pixel count
// against the header geometry.
func UnmarshalFrame(b []byte) (*frame.Frame, error) {
	if len(b) < frameHeaderSize {
		return nil, fmt.Errorf("wire: FRAME payload is %d bytes, want >= %d", len(b), frameHeaderSize)
	}
	w := int(binary.LittleEndian.Uint32(b))
	h := int(binary.LittleEndian.Uint32(b[4:]))
	f := frame.Format(b[8])
	switch f {
	case frame.Gray8, frame.RGB24, frame.YUV444:
	default:
		return nil, fmt.Errorf("wire: FRAME format %d not streamable", b[8])
	}
	if w <= 0 || h <= 0 || w > 1<<15 || h > 1<<15 {
		return nil, fmt.Errorf("wire: unreasonable FRAME geometry %dx%d", w, h)
	}
	pix := b[frameHeaderSize:]
	if want := w * h * f.BytesPerPixel(); len(pix) != want {
		return nil, fmt.Errorf("wire: FRAME carries %d pixel bytes for %dx%d %v, want %d", len(pix), w, h, f, want)
	}
	return frame.FromPix(w, h, f, pix)
}

// AppendError appends a failure reply to dst.
func AppendError(dst []byte, code uint16, msg string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, code)
	return append(dst, msg...)
}

// MarshalError encodes a failure reply into a fresh buffer.
func MarshalError(code uint16, msg string) []byte { return AppendError(nil, code, msg) }

// UnmarshalError decodes a failure reply into a RemoteError.
func UnmarshalError(b []byte) (*RemoteError, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("wire: ERROR payload is %d bytes, want >= 2", len(b))
	}
	return &RemoteError{Code: binary.LittleEndian.Uint16(b), Message: string(b[2:])}, nil
}
