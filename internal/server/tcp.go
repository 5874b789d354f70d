package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/wire"
)

// connWriter is one connection's write side: a wire.MessageWriter (vectored
// header+payload assembly, safe for concurrent writers) plus a reusable
// marshaling scratch buffer. The scratch belongs to the connection's read
// loop; a stream's writer goroutine marshals into its own.
type connWriter struct {
	conn       net.Conn
	mw         *wire.MessageWriter
	timeout    time.Duration
	maxPayload int
	scratch    []byte
}

func newConnWriter(conn net.Conn, cfg TCPConfig) *connWriter {
	return &connWriter{
		conn:       conn,
		mw:         wire.NewMessageWriter(conn),
		timeout:    cfg.WriteTimeout,
		maxPayload: cfg.MaxPayload,
	}
}

// write frames and sends one message under the write deadline. Safe for
// concurrent use as long as callers do not share payload buffers.
func (cw *connWriter) write(typ byte, payload []byte) error {
	cw.conn.SetWriteDeadline(time.Now().Add(cw.timeout))
	return cw.mw.WriteMessage(typ, payload, cw.maxPayload)
}

// writeVec is write for a payload given as parts, sent without copying
// them (wire.MessageWriter.WriteMessageVec).
func (cw *connWriter) writeVec(typ byte, parts [][]byte) error {
	cw.conn.SetWriteDeadline(time.Now().Add(cw.timeout))
	return cw.mw.WriteMessageVec(typ, parts, cw.maxPayload)
}

// writeErr sends a typed ERROR, marshaling into the loop-owned scratch.
func (cw *connWriter) writeErr(code uint16, msg string) error {
	cw.scratch = wire.AppendError(cw.scratch[:0], code, msg)
	return cw.write(wire.MsgError, cw.scratch)
}

// TCPConfig tunes the network front end.
type TCPConfig struct {
	// ReadTimeout bounds each blocking message read, and is rpxd's one
	// idle guard: a client that sends nothing for this long is disconnected
	// and its MaxSessions slot freed (default 2 minutes). Every message
	// re-arms it, CREDIT included, so a stream whose reader keeps consuming
	// stays attached.
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply write (default 30 seconds).
	WriteTimeout time.Duration
	// MaxPayload caps a single message payload in bytes
	// (default wire.DefaultMaxPayload).
	MaxPayload int
}

// Defaults for TCPConfig zero values.
const (
	DefaultReadTimeout  = 2 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
)

// TCPServer speaks the wire protocol on a listener, translating messages
// into Manager calls. Each connection has one role, fixed by its first
// message: a session (HELLO) or a stream of another session's frames
// (SUBSCRIBE). Either holds one MaxSessions slot for its life.
type TCPServer struct {
	ConnServer
	mgr *Manager
	cfg TCPConfig
}

// NewTCPServer wraps a manager with the network front end.
func NewTCPServer(mgr *Manager, cfg TCPConfig) *TCPServer {
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = wire.DefaultMaxPayload
	}
	s := &TCPServer{mgr: mgr, cfg: cfg}
	s.ReadTimeout = cfg.ReadTimeout
	return s
}

// Manager returns the session manager behind the server.
func (s *TCPServer) Manager() *Manager { return s.mgr }

// Serve accepts connections until the listener is closed (via Shutdown).
// It returns nil on graceful shutdown.
func (s *TCPServer) Serve(ln net.Listener) error { return s.ConnServer.Serve(ln, s.handle) }

// Shutdown drains the connections (ConnServer.Shutdown), whose handlers
// finish their current request and close their sessions, then closes the
// manager, so every session is closed before the process exits even when
// ctx expires.
func (s *TCPServer) Shutdown(ctx context.Context) error {
	err := s.ConnServer.Shutdown(ctx)
	s.mgr.Close()
	return err
}

// handle serves one connection in the role its first message fixes.
func (s *TCPServer) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	cw := newConnWriter(conn, s.cfg)

	// rbuf is this connection's reusable inbound payload buffer. Reuse is
	// safe because every payload is consumed before the next read: control
	// payloads are decoded into their own structs immediately, and CAPTURE
	// pixel payloads — which the frame wrapper aliases — are fully copied by
	// the encoder before Capture returns.
	var rbuf []byte
	s.ArmRead(conn)
	typ, payload, err := wire.ReadMessageInto(br, &rbuf, s.cfg.MaxPayload)
	if err != nil {
		return
	}
	switch typ {
	case wire.MsgHello:
		s.serveSession(conn, br, &rbuf, cw, payload)
	case wire.MsgSubscribe:
		s.serveStream(conn, br, &rbuf, cw, payload)
	default:
		cw.writeErr(wire.CodeProto, fmt.Sprintf("first message must be HELLO or SUBSCRIBE, got %d", typ))
	}
}

// serveSession opens the session a HELLO asks for and serves its requests
// one at a time until CLOSE or disconnect.
func (s *TCPServer) serveSession(conn net.Conn, br *bufio.Reader, rbuf *[]byte, cw *connWriter, payload []byte) {
	hello, err := wire.UnmarshalHello(payload)
	if err != nil {
		cw.writeErr(wire.CodeProto, err.Error())
		return
	}
	// Reject geometries whose CAPTURE/FRAME payloads could never fit the
	// payload cap at the handshake — otherwise every Decode reply of an
	// accepted session would fail ErrTooLarge and drop the connection with
	// no error ever reaching the client.
	if need := wire.FramePayloadSize(hello.W, hello.H, hello.Format); need > int64(s.cfg.MaxPayload) {
		cw.writeErr(wire.CodeGeometry, fmt.Sprintf(
			"session geometry %dx%d %v needs %d-byte frame payloads, cap is %d",
			hello.W, hello.H, hello.Format, need, s.cfg.MaxPayload))
		return
	}
	sess, err := s.mgr.Open(SessionConfig{W: hello.W, H: hello.H, Format: hello.Format})
	if err != nil {
		code := wire.CodeBadRequest
		if errors.Is(err, ErrSessionLimit) || errors.Is(err, ErrManagerClosed) {
			code = wire.CodeSessionLimit
		}
		cw.writeErr(code, err.Error())
		return
	}
	defer sess.Close()
	cw.scratch = wire.AppendHelloAck(cw.scratch[:0], wire.HelloAck{
		SessionID:  sess.ID(),
		MaxPayload: s.cfg.MaxPayload,
	})
	if err := cw.write(wire.MsgHelloAck, cw.scratch); err != nil {
		return
	}

	frameBytes := hello.W * hello.H * hello.Format.BytesPerPixel()
	for {
		s.ArmRead(conn)
		typ, payload, err := wire.ReadMessageInto(br, rbuf, s.cfg.MaxPayload)
		if err != nil {
			if errors.Is(err, wire.ErrTooLarge) {
				cw.writeErr(wire.CodeTooLarge, err.Error())
			}
			// Disconnect, timeout, or shutdown wake-up: close the session.
			return
		}
		if done := s.serveMsg(sess, cw, typ, payload, hello, frameBytes); done {
			return
		}
	}
}

// serveStream runs the push subscription a SUBSCRIBE asks for: take a
// MaxSessions slot, attach to the target session and ack, then split the
// connection — a writer goroutine owns the pushes and the final ACK or
// error, while this loop reads CREDIT grants and label feedback until
// UNSUBSCRIBE or teardown. The connection closes when the stream ends.
func (s *TCPServer) serveStream(conn net.Conn, br *bufio.Reader, rbuf *[]byte, cw *connWriter, payload []byte) {
	req, err := wire.UnmarshalSubscribe(payload)
	if err != nil {
		cw.writeErr(wire.CodeProto, err.Error())
		return
	}
	if err := s.mgr.reserve(); err != nil {
		cw.writeErr(wire.CodeSessionLimit, err.Error())
		return
	}
	defer s.mgr.unreserve()
	target, ok := s.mgr.Lookup(req.Target)
	var sub *Subscription
	if ok {
		sub, err = target.Subscribe(int(req.Credit), int(req.Batch))
	}
	if !ok || err != nil {
		cw.writeErr(wire.CodeBadRequest, fmt.Sprintf("SUBSCRIBE target session %d not found", req.Target))
		return
	}
	if err := cw.write(wire.MsgAck, nil); err != nil {
		sub.discard()
		return
	}

	// From here the writer goroutine sends the pushes and the stream's
	// last message; this loop writes only LABELS_APPLIED replies, which
	// must interleave with live pushes, and relies on the MessageWriter's
	// lock to keep whole messages atomic against the writer. However the
	// stream ends, the writer is joined before the connection closes.
	writerDone := make(chan error, 1)
	go func() { writerDone <- s.streamWriter(sub, conn, cw) }()
	stop := sync.OnceFunc(func() {
		sub.Abort() // a no-op after UNSUBSCRIBE: the first reason wins
		<-writerDone
	})
	defer stop()
	for {
		s.ArmRead(conn)
		typ, payload, err := wire.ReadMessageInto(br, rbuf, s.cfg.MaxPayload)
		if err != nil {
			// Disconnect, timeout, shutdown wake-up, or the writer ended
			// the stream server-side and woke us.
			return
		}
		// A malformed stream message ends the stream, as a transport
		// failure does.
		switch typ {
		case wire.MsgCredit:
			n, err := wire.UnmarshalCredit(payload)
			if err != nil {
				return
			}
			sub.Grant(int(n))
		case wire.MsgUnsubscribe:
			if len(payload) != 0 {
				return
			}
			// The writer drains the already-accepted frames and emits the
			// final ACK.
			sub.Unsubscribe()
			return
		case wire.MsgStreamLabels:
			labels, err := wire.UnmarshalLabels(payload)
			if err != nil {
				return
			}
			// Apply under the target session's lock: the update is
			// serialized with in-flight captures, so the boundary is exact. A
			// rejected workload (bad geometry) reports its code in the reply
			// and leaves the stream — and the previous labels — intact; only
			// transport failures end the subscription.
			var ack wire.LabelsApplied
			seq, err := target.SetRegionLabelsAt(labels)
			switch {
			case err == nil:
				ack.AppliedSeq = seq
				s.mgr.streamLabels.Add(1)
			case errors.Is(err, ErrSessionClosed), errors.Is(err, ErrManagerClosed):
				ack.Code, ack.Msg = wire.CodeUnavailable, err.Error()
			default:
				ack.Code, ack.Msg = wire.CodeBadRequest, err.Error()
			}
			cw.scratch = wire.AppendLabelsApplied(cw.scratch[:0], ack)
			if cw.write(wire.MsgLabelsApplied, cw.scratch) != nil {
				return
			}
		default:
			stop()
			cw.writeErr(wire.CodeProto, fmt.Sprintf("message type %d not allowed on a stream", typ))
			return
		}
	}
}

// streamWriter sends one subscription's pushes: it blocks for published
// frames, batches what is already buffered (splitting on the payload cap),
// and finishes with the final ACK (clean unsubscribe) or a typed error
// (producing session closed). Every
// frame it dequeues is released once the write that carries it has
// returned, whether it succeeded or not; after a failed write it discards
// the rest of the queue.
func (s *TCPServer) streamWriter(sub *Subscription, conn net.Conn, cw *connWriter) error {
	// The writer's own marshaling state: it runs concurrently with the
	// stream read loop, so it must not share cw.scratch.
	var pw pushWriter
	for {
		frames, dropped, ok := sub.Next()
		if !ok {
			break
		}
		for len(frames) > 0 {
			n := wire.PushFit(len(frames), func(i int) int { return frames[i].EncodedSize() }, s.cfg.MaxPayload)
			err := cw.writeVec(wire.MsgFramePush, pw.build(dropped, frames[:n]))
			clear(pw.parts) // hold no frame past its write
			release(frames[:n])
			if err != nil {
				release(frames[n:])
				sub.discard()
				return err
			}
			s.mgr.noteFramesPushed(n)
			frames = frames[n:]
		}
	}
	switch sub.Reason() {
	case ReasonUnsubscribed:
		return cw.write(wire.MsgAck, nil)
	case ReasonSessionClosed:
		scratch := wire.AppendError(pw.scratch[:0], wire.CodeUnavailable,
			"server: subscribed session closed")
		err := cw.write(wire.MsgError, scratch)
		// Wake the connection's reader: the stream cannot continue, and
		// the client was just told so.
		conn.SetReadDeadline(time.Now())
		return err
	default:
		// ReasonConnClosed: the reader is already tearing down.
		return nil
	}
}

// pushWriter assembles FRAME_PUSH payloads for one stream as the parts of
// a vectored write, reusing its storage from batch to batch. The scratch
// holds what is not stored in a frame — the push header, each record's
// length, each frame's RPXE header and its serialized row-offset table —
// and parts interleaves slices of it with each frame's own Pix and Mask
// bytes, in RPXE container order.
type pushWriter struct {
	scratch []byte
	cuts    []int // per frame: scratch offsets where its Pix, then its Mask go
	parts   [][]byte
}

// build returns the parts of one FRAME_PUSH payload carrying frames. They
// alias the frames, so the frames must stay pinned until the write that
// sends the parts returns.
func (pw *pushWriter) build(dropped uint64, frames []*core.EncodedFrame) [][]byte {
	pw.scratch = wire.AppendFramePushHeader(pw.scratch[:0], dropped, len(frames))
	pw.cuts = pw.cuts[:0]
	for _, ef := range frames {
		pw.scratch = wire.AppendPushRecordHeader(pw.scratch, ef.EncodedSize())
		pw.scratch = ef.AppendHeader(pw.scratch)
		pw.cuts = append(pw.cuts, len(pw.scratch))
		pw.scratch = ef.AppendRowOffsets(pw.scratch)
		pw.cuts = append(pw.cuts, len(pw.scratch))
	}
	// Slice the scratch only now that it has stopped growing.
	pw.parts = pw.parts[:0]
	start := 0
	for i, ef := range frames {
		pix, mask := pw.cuts[2*i], pw.cuts[2*i+1]
		pw.parts = append(pw.parts, pw.scratch[start:pix], ef.Pix, pw.scratch[pix:mask], ef.Mask.Bytes())
		start = mask
	}
	return pw.parts
}

// serveMsg dispatches one request message; it reports true when the
// connection should end.
func (s *TCPServer) serveMsg(sess *Session, cw *connWriter, typ byte, payload []byte, hello wire.Hello, frameBytes int) bool {
	fail := func(err error) bool {
		code := wire.CodeInternal
		if errors.Is(err, ErrSessionClosed) || errors.Is(err, ErrManagerClosed) {
			code = wire.CodeSessionLimit
		}
		return cw.writeErr(code, err.Error()) != nil
	}
	switch typ {
	case wire.MsgSetLabels:
		labels, err := wire.UnmarshalLabels(payload)
		if err != nil {
			return cw.writeErr(wire.CodeProto, err.Error()) != nil
		}
		if err := sess.SetRegionLabels(labels); err != nil {
			if errors.Is(err, ErrSessionClosed) {
				return fail(err)
			}
			return cw.writeErr(wire.CodeBadRequest, err.Error()) != nil
		}
		return cw.write(wire.MsgAck, nil) != nil

	case wire.MsgCapture:
		if len(payload) != frameBytes {
			return cw.writeErr(wire.CodeBadRequest, fmt.Sprintf(
				"CAPTURE carries %d bytes, session %dx%d %v needs %d",
				len(payload), hello.W, hello.H, hello.Format, frameBytes)) != nil
		}
		fr, err := frame.FromPix(hello.W, hello.H, hello.Format, payload)
		if err != nil {
			return cw.writeErr(wire.CodeBadRequest, err.Error()) != nil
		}
		cs, err := sess.Capture(fr)
		if err != nil {
			return fail(err)
		}
		cw.scratch = wire.AppendCaptureAck(cw.scratch[:0], wire.CaptureAck{
			FrameIndex:    cs.FrameIndex,
			EncodedPixels: cs.EncodedPixels,
			EncodedBytes:  cs.EncodedBytes,
			PixelFraction: cs.PixelFraction,
		})
		return cw.write(wire.MsgCaptureAck, cw.scratch) != nil

	case wire.MsgDecode:
		fr, err := sess.Decoded()
		if err != nil {
			return fail(err)
		}
		cw.scratch = wire.AppendFrame(cw.scratch[:0], fr)
		return cw.write(wire.MsgFrame, cw.scratch) != nil

	case wire.MsgClose:
		cw.write(wire.MsgAck, nil)
		return true

	default:
		return cw.writeErr(wire.CodeProto, fmt.Sprintf("unexpected message type %d", typ)) != nil
	}
}
