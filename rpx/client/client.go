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
// With Config.Reconnect set, a poisoned session heals itself instead: the
// next call re-dials with exponential backoff plus jitter, replays the
// handshake and the last installed region labels, and retries the
// operation when it is idempotent (SetRegionLabels, Decoded). Capture is
// not idempotent — the server may or may not have encoded the in-flight
// frame — so a Capture that hits a transport error always surfaces it; the
// session still recovers for subsequent calls. Note that the server builds
// a fresh pipeline for the new connection: frame history does not survive
// a reconnect, so a Decode before the first post-reconnect Capture fails
// with a remote error.
//
// # Streaming
//
// Subscribe turns a session into a push consumer of any session's frames
// (see Stream). A stream reads every message into one buffer it reuses, so
// a StreamFrame's Raw bytes are valid only until the next Recv or Close on
// that stream; copy them, or Decode the frame, to keep it. The values the
// request/reply calls return are the caller's to keep.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/rpx"
	"repro/rpx/client/replay"
)

// ErrBrokenSession is returned by every call after a transport error
// poisoned the session (and reconnection is disabled or failed): the
// request/reply framing can no longer be trusted, so the client refuses to
// read what could be a stale reply.
var ErrBrokenSession = errors.New("client: session broken by transport error")

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

	// Reconnect heals poisoned sessions: after a transport error the next
	// call re-dials, replays the handshake and the last SetRegionLabels
	// workload, and retries idempotent operations. Without it a transport
	// error permanently breaks the session (ErrBrokenSession).
	Reconnect bool
	// MaxRetries bounds re-dial attempts per recovery (default 3).
	MaxRetries int
	// Backoff is the base re-dial backoff; attempt k sleeps about
	// Backoff<<k plus up to 50% jitter (default 50ms).
	Backoff time.Duration
}

// Session is an open rpxd session. Methods are safe for concurrent use.
type Session struct {
	addr string
	cfg  Config

	mu          sync.Mutex // serializes request/reply round trips
	conn        net.Conn
	br          *bufio.Reader
	mw          *wire.MessageWriter // framing writer; serializes concurrent writers itself
	closed      bool
	broken      bool
	id          uint64
	maxPayload  int
	stream      *Stream // open push subscription, nil in request/reply mode
	dialTimeout time.Duration
	timeout     time.Duration
	lastLabels  []rpx.RegionLabel // replayed after reconnect; nil = never set
	reconnects  int
	rng         *rand.Rand // backoff jitter; guarded by mu
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
	s := &Session{
		addr:        addr,
		cfg:         cfg,
		maxPayload:  wire.DefaultMaxPayload,
		dialTimeout: dialTimeout,
		timeout:     reqTimeout,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if err := s.connectLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// connectLocked dials and performs the HELLO handshake, installing the new
// connection on success. Callers must hold s.mu (or own s exclusively, as
// Dial does). The handshake itself lives in the shared replay package so
// the gateway's session-migration path replays byte-identical messages.
func (s *Session) connectLocked() error {
	conn, err := net.DialTimeout("tcp", s.addr, s.dialTimeout)
	if err != nil {
		return fmt.Errorf("client: dial %s: %w", s.addr, err)
	}
	br := bufio.NewReader(conn)
	hello := wire.Hello{W: s.cfg.W, H: s.cfg.H, Format: s.cfg.Format}
	ack, _, err := replay.Handshake(conn, br, wire.MarshalHello(hello), s.maxPayload, s.timeout)
	if err != nil {
		conn.Close()
		return fmt.Errorf("client: %w", err)
	}
	s.conn = conn
	s.br = br
	// All post-handshake writes go through one MessageWriter: header and
	// payload leave in a single vectored write, and its internal lock makes
	// concurrent writers (request/reply vs. streaming grants) safe without
	// a separate write mutex.
	s.mw = wire.NewMessageWriter(conn)
	s.id = ack.SessionID
	s.maxPayload = ack.MaxPayload
	s.broken = false
	return nil
}

// ID returns the server-assigned session id (of the newest connection, if
// the session has reconnected).
func (s *Session) ID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.id
}

// Dimensions returns the negotiated frame geometry.
func (s *Session) Dimensions() (w, h int) { return s.cfg.W, s.cfg.H }

// Broken reports whether the session is poisoned: a transport error
// desynchronized the request/reply stream and no reconnect has healed it.
func (s *Session) Broken() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

// Reconnects returns how many times the session has transparently
// re-dialed and replayed its workload.
func (s *Session) Reconnects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reconnects
}

// poisonLocked marks the stream unusable and tears the connection down.
func (s *Session) poisonLocked() {
	s.broken = true
	if s.conn != nil {
		s.conn.Close()
	}
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

// call performs a round trip and unwraps ERROR replies. Idempotent
// operations are retried across reconnects when Config.Reconnect is set;
// non-idempotent ones (Capture) surface their transport error, though the
// session still heals for subsequent calls.
func (s *Session) call(typ byte, payload []byte, wantReply byte, idempotent bool) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if s.closed {
			return nil, fmt.Errorf("client: session closed")
		}
		if s.stream != nil {
			// An open push subscription owns the connection's framing.
			return nil, ErrStreaming
		}
		if s.broken {
			if !s.cfg.Reconnect {
				return nil, ErrBrokenSession
			}
			if err := s.reconnectLocked(); err != nil {
				return nil, err
			}
		}
		rtyp, rpayload, err := s.roundTripLocked(typ, payload)
		if err == nil {
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
		if !s.cfg.Reconnect || !idempotent || attempt >= s.maxRetries() {
			return nil, err
		}
	}
}

// SetRegionLabels installs the capture workload for the next frame. The
// labels are remembered and replayed if the session reconnects.
func (s *Session) SetRegionLabels(labels []rpx.RegionLabel) error {
	_, err := s.call(wire.MsgSetLabels, wire.MarshalLabels(labels), wire.MsgAck, true)
	if err == nil {
		s.mu.Lock()
		s.lastLabels = append([]rpx.RegionLabel{}, labels...)
		s.mu.Unlock()
	}
	return err
}

// Capture streams one frame to the server for encoding and returns the
// capture statistics. The frame must match the negotiated geometry.
// Capture is not retried across reconnects: a transport error mid-capture
// leaves it unknown whether the server encoded the frame, so the error is
// surfaced and the caller decides whether to resend.
func (s *Session) Capture(fr *rpx.Frame) (rpx.CaptureStats, error) {
	if fr.W != s.cfg.W || fr.H != s.cfg.H || fr.Format != s.cfg.Format {
		return rpx.CaptureStats{}, fmt.Errorf("client: frame is %dx%d %v, session is %dx%d %v",
			fr.W, fr.H, fr.Format, s.cfg.W, s.cfg.H, s.cfg.Format)
	}
	payload, err := s.call(wire.MsgCapture, fr.Pix, wire.MsgCaptureAck, false)
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
	payload, err := s.call(wire.MsgDecode, nil, wire.MsgFrame, true)
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalFrame(payload)
}

// Close ends the session and closes the connection. A poisoned session is
// torn down without the graceful CLOSE exchange (its framing is not
// trustworthy).
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.broken || s.conn == nil || s.stream != nil {
		// A poisoned session's framing is not trustworthy, and an open
		// stream owns the framing: tear down without the CLOSE exchange.
		if s.conn != nil {
			s.conn.Close()
		}
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
