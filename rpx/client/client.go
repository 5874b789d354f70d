// Package client is the Go client for rpxd, the rhythmic-pixel
// capture/decode service. One Dial is one session: the connection handshake
// negotiates frame geometry and pixel format, and the returned Session then
// mirrors the rpx.System surface — SetRegionLabels, Capture, Decoded — over
// the wire.
//
//	sess, err := client.Dial("localhost:7621", client.Config{W: 640, H: 480, Format: rpx.Gray8})
//	...
//	sess.SetRegionLabels(labels)
//	stats, _ := sess.Capture(frame)
//	img, _ := sess.Decoded()
//
// A Session is safe for concurrent use by multiple goroutines; requests are
// serialized over the single connection in submission order.
//
// # Failure semantics
//
// The protocol is strict request/reply, so after any transport error — a
// write or read deadline firing, a short read, a reset — the connection's
// framing is undefined: a late reply may still be in flight, and reading it
// as the answer to the next request would attribute the wrong bytes to the
// wrong call. The Session therefore poisons itself on the first transport
// error: the failing call returns that error, and every later call fails
// with ErrBrokenSession instead of trusting the stream.
//
// A broken session stays broken. To go on, Dial again: the new session
// starts from a fresh server-side pipeline, so re-install its region labels
// before the next Capture. Behind rpxgw a backend loss never breaks the
// client session; the gateway migrates it, labels included.
//
// # Streaming
//
// Subscribe opens a push stream of any other session's frames (see
// Stream) on a connection of its own, dialed with the session's address,
// timeouts and payload cap. The session keeps serving requests while its
// streams run, a stream's transport error ends only that stream, and Close
// on the session also closes every stream it opened. A stream is its
// connection's one subscription, and a pushed frame is its RPXE container
// alone: a StreamFrame's Seq and Stats are read from the container's
// header. A stream reads every message into one buffer it reuses, so a
// StreamFrame's Raw bytes are valid only until the next Recv or Close on
// that stream; copy them, or Decode the frame, to keep it. The values the request/reply calls return are the
// caller's to keep.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/rpx"
)

// ErrBrokenSession is returned by every call after a transport error
// poisoned the session: the request/reply framing can no longer be
// trusted, so the client refuses to read what could be a stale reply. Dial
// again to go on.
var ErrBrokenSession = errors.New("client: session broken by transport error")

// errSessionClosed is returned by every call after Close.
var errSessionClosed = errors.New("client: session closed")

// Config parameterizes Dial. W, H, and Format are required, and are all
// the server learns of the session; the rest tune this client.
type Config struct {
	// W, H are the session frame dimensions.
	W, H int
	// Format is the session pixel format (rpx.Gray8, rpx.RGB24, rpx.YUV444).
	Format rpx.Format
	// Block is ignored. The server runs a session's requests one at a time
	// under a lock and never turns one away, so there is no backpressure
	// mode to choose.
	//
	// Deprecated: leave it unset; it remains only so that code setting it
	// still compiles.
	Block bool
	// DialTimeout bounds connection establishment (default 10s).
	DialTimeout time.Duration
	// RequestTimeout bounds each request round trip (default 30s).
	RequestTimeout time.Duration
}

// Session is an open rpxd session. Methods are safe for concurrent use.
type Session struct {
	// Dial sets these once.
	cfg         Config
	addr        string
	conn        net.Conn
	br          *bufio.Reader
	mw          *wire.MessageWriter
	id          uint64
	maxPayload  int
	dialTimeout time.Duration
	timeout     time.Duration

	mu      sync.Mutex // serializes request/reply round trips; guards the fields below
	closed  bool
	broken  bool
	streams map[*Stream]struct{} // the open streams Subscribe dialed
}

// Dial connects to an rpxd server and negotiates a session.
func Dial(addr string, cfg Config) (*Session, error) {
	dialTimeout := cfg.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 10 * time.Second
	}
	reqTimeout := cfg.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = 30 * time.Second
	}
	hello := wire.MarshalHello(wire.Hello{W: cfg.W, H: cfg.H, Format: cfg.Format})
	conn, br, payload, err := wire.Dial(addr, dialTimeout, wire.MsgHello, hello, wire.DefaultMaxPayload, reqTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	ack, err := wire.UnmarshalHelloAck(payload)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: %w", err)
	}
	return &Session{
		cfg:  cfg,
		addr: addr,
		conn: conn,
		br:   br,
		// Each request leaves in a single vectored write: header and
		// payload together, the payload never copied.
		mw:          wire.NewMessageWriter(conn),
		id:          ack.SessionID,
		maxPayload:  ack.MaxPayload,
		dialTimeout: dialTimeout,
		timeout:     reqTimeout,
		streams:     make(map[*Stream]struct{}),
	}, nil
}

// ID returns the server-assigned session id.
func (s *Session) ID() uint64 { return s.id }

// Dimensions returns the negotiated frame geometry.
func (s *Session) Dimensions() (w, h int) { return s.cfg.W, s.cfg.H }

// Broken reports whether the session is poisoned: a transport error
// desynchronized the request/reply stream, and the caller must Dial again.
func (s *Session) Broken() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

// poisonLocked marks the stream unusable and tears the connection down.
func (s *Session) poisonLocked() {
	s.broken = true
	s.conn.Close()
}

// roundTripLocked sends one request and reads one reply. Any transport
// error poisons the session: after a deadline fires or a read comes back
// short, a late reply may still be in flight, and the next read would
// attribute it to the wrong request.
func (s *Session) roundTripLocked(typ byte, payload []byte) (byte, []byte, error) {
	s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	if err := s.mw.WriteMessage(typ, payload, s.maxPayload); err != nil {
		s.poisonLocked()
		return 0, nil, fmt.Errorf("client: send: %w", err)
	}
	s.conn.SetReadDeadline(time.Now().Add(s.timeout))
	rtyp, rpayload, err := wire.ReadMessage(s.br, s.maxPayload)
	if err != nil {
		s.poisonLocked()
		return 0, nil, fmt.Errorf("client: receive: %w", err)
	}
	return rtyp, rpayload, nil
}

// call performs a round trip and unwraps ERROR replies.
func (s *Session) call(typ byte, payload []byte, wantReply byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errSessionClosed
	}
	if s.broken {
		return nil, ErrBrokenSession
	}
	rtyp, rpayload, err := s.roundTripLocked(typ, payload)
	if err != nil {
		return nil, err
	}
	if rtyp == wire.MsgError {
		re, uerr := wire.UnmarshalError(rpayload)
		if uerr != nil {
			return nil, uerr
		}
		return nil, re
	}
	if rtyp != wantReply {
		// A reply of the wrong type means the stream is already
		// desynchronized; refuse to keep reading it.
		s.poisonLocked()
		return nil, fmt.Errorf("%w: got reply type %d, want %d", ErrBrokenSession, rtyp, wantReply)
	}
	return rpayload, nil
}

// SetRegionLabels installs the capture workload for the next frame.
func (s *Session) SetRegionLabels(labels []rpx.RegionLabel) error {
	_, err := s.call(wire.MsgSetLabels, wire.MarshalLabels(labels), wire.MsgAck)
	return err
}

// Capture streams one frame to the server for encoding and returns the
// capture statistics. The frame must match the negotiated geometry. A
// transport error mid-capture leaves it unknown whether the server encoded
// the frame.
func (s *Session) Capture(fr *rpx.Frame) (rpx.CaptureStats, error) {
	if fr.W != s.cfg.W || fr.H != s.cfg.H || fr.Format != s.cfg.Format {
		return rpx.CaptureStats{}, fmt.Errorf("client: frame is %dx%d %v, session is %dx%d %v",
			fr.W, fr.H, fr.Format, s.cfg.W, s.cfg.H, s.cfg.Format)
	}
	payload, err := s.call(wire.MsgCapture, fr.Pix, wire.MsgCaptureAck)
	if err != nil {
		return rpx.CaptureStats{}, err
	}
	ack, err := wire.UnmarshalCaptureAck(payload)
	if err != nil {
		return rpx.CaptureStats{}, err
	}
	return rpx.CaptureStats{
		FrameIndex:    ack.FrameIndex,
		EncodedPixels: ack.EncodedPixels,
		EncodedBytes:  ack.EncodedBytes,
		PixelFraction: ack.PixelFraction,
	}, nil
}

// Decoded reconstructs the newest frame server-side and returns it.
func (s *Session) Decoded() (*rpx.Frame, error) {
	payload, err := s.call(wire.MsgDecode, nil, wire.MsgFrame)
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalFrame(payload)
}

// Close ends the session and closes the connection, and closes every
// stream the session opened: a Recv blocked on one of them returns its
// transport error. A poisoned session is torn down without the graceful
// CLOSE exchange (its framing is not trustworthy).
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for st := range s.streams {
		st.conn.Close()
	}
	if s.broken {
		s.conn.Close()
		return nil
	}
	s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	s.mw.WriteMessage(wire.MsgClose, nil, s.maxPayload)
	s.conn.SetReadDeadline(time.Now().Add(s.timeout))
	wire.ReadMessage(s.br, s.maxPayload) // best-effort ACK
	return s.conn.Close()
}

// IsGeometryRejected reports whether err is the server's handshake-time
// rejection of a session geometry whose frames could never fit the
// negotiated payload cap.
func IsGeometryRejected(err error) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) && re.Code == wire.CodeGeometry
}
