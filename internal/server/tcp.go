package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/frame"
	"repro/internal/wire"
)

// connWriter is one connection's write side: a wire.MessageWriter (vectored
// header+payload assembly, safe for concurrent writers) plus a reusable
// marshaling scratch buffer. The scratch is single-owner: it belongs to the
// request/reply loop, and during streaming it is only touched again after
// the stream writer goroutine has been joined.
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
	// and its session slot freed (default 2 minutes). Every message re-arms
	// it, CREDIT included, so a subscriber that keeps consuming its stream
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

// TCPServer speaks the wire protocol on a listener, one session per
// connection, translating messages into Manager calls.
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

// handle runs one connection's session loop.
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

	// The first message must be a valid HELLO.
	s.ArmRead(conn)
	typ, payload, err := wire.ReadMessageInto(br, &rbuf, s.cfg.MaxPayload)
	if err != nil {
		return
	}
	if typ != wire.MsgHello {
		cw.writeErr(wire.CodeProto, fmt.Sprintf("first message must be HELLO, got %d", typ))
		return
	}
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
		typ, payload, err := wire.ReadMessageInto(br, &rbuf, s.cfg.MaxPayload)
		if err != nil {
			if errors.Is(err, wire.ErrTooLarge) {
				cw.writeErr(wire.CodeTooLarge, err.Error())
			}
			// Disconnect, timeout, or shutdown wake-up: close the session.
			return
		}
		if typ == wire.MsgSubscribe {
			// Streaming mode runs its own read loop and hands the write
			// side to a dedicated writer until the subscription ends.
			if done := s.serveStream(sess, conn, br, &rbuf, cw, payload); done {
				return
			}
			continue
		}
		if wire.IsStreamMessage(typ) {
			continue // its stream already ended; it gets no reply
		}
		if done := s.serveMsg(sess, cw, typ, payload, hello, frameBytes); done {
			return
		}
	}
}

// serveStream runs one push subscription's lifecycle: validate and attach,
// ack, then split the connection — a writer goroutine owns the write side
// (FRAME_PUSH batches, the final ACK or error), while this loop keeps
// reading CREDIT grants until UNSUBSCRIBE or teardown. It reports true when
// the connection should end; false resumes the request/reply loop.
func (s *TCPServer) serveStream(sess *Session, conn net.Conn, br *bufio.Reader, rbuf *[]byte, cw *connWriter, payload []byte) bool {
	req, err := wire.UnmarshalSubscribe(payload)
	if err != nil {
		return cw.writeErr(wire.CodeProto, err.Error()) != nil
	}
	target := sess
	if req.Target != 0 && req.Target != sess.ID() {
		t, ok := s.mgr.Lookup(req.Target)
		if !ok {
			return cw.writeErr(wire.CodeBadRequest, fmt.Sprintf(
				"SUBSCRIBE target session %d not found", req.Target)) != nil
		}
		target = t
	}
	sub, next, err := target.Subscribe(int(req.Credit), int(req.Batch))
	if err != nil {
		return cw.writeErr(wire.CodeSessionLimit, err.Error()) != nil
	}
	cw.scratch = wire.AppendSubscribeAck(cw.scratch[:0], wire.SubscribeAck{
		SubID:   sub.ID(),
		NextSeq: next,
	})
	if err := cw.write(wire.MsgSubscribeAck, cw.scratch); err != nil {
		sub.discard()
		return true
	}

	// From here the writer goroutine owns cw for writing (its MessageWriter
	// serializes the actual sends); this loop only writes again after
	// joining writerDone, so cw.scratch is never shared. The one exception
	// is the LABELS_APPLIED reply, which must interleave with live
	// FRAME_PUSH traffic: it marshals into its own buffer (never
	// cw.scratch) and relies on the MessageWriter's internal lock to keep
	// whole messages atomic against the stream writer.
	writerDone := make(chan error, 1)
	go func() { writerDone <- s.streamWriter(sub, conn, cw) }()

	var fbScratch []byte
	for {
		s.ArmRead(conn)
		typ, payload, err := wire.ReadMessageInto(br, rbuf, s.cfg.MaxPayload)
		if err != nil {
			// Disconnect, timeout, shutdown wake-up, or the writer ended
			// the stream server-side and woke us: tear the stream down.
			sub.Abort()
			<-writerDone
			return true
		}
		switch typ {
		case wire.MsgCredit:
			c, err := wire.UnmarshalCredit(payload)
			if err != nil || c.SubID != sub.ID() {
				sub.Abort()
				<-writerDone
				return true
			}
			sub.Grant(int(c.N))
		case wire.MsgUnsubscribe:
			u, err := wire.UnmarshalUnsubscribe(payload)
			if err != nil || u.SubID != sub.ID() {
				sub.Abort()
				<-writerDone
				return true
			}
			sub.Unsubscribe()
			// The writer drains the already-accepted frames and emits the
			// final ACK; then the write side is ours again.
			return <-writerDone != nil
		case wire.MsgStreamLabels:
			sl, err := wire.UnmarshalStreamLabels(payload)
			if err != nil || sl.SubID != sub.ID() {
				sub.Abort()
				<-writerDone
				return true
			}
			// Apply under the target session's lock: the update is
			// serialized with in-flight captures, so the boundary is exact. A
			// rejected workload (bad geometry) reports its code in the reply
			// and leaves the stream — and the previous labels — intact; only
			// transport failures end the subscription.
			ack := wire.LabelsApplied{SubID: sub.ID()}
			seq, err := target.SetRegionLabelsAt(sl.Labels)
			switch {
			case err == nil:
				ack.AppliedSeq = seq
				s.mgr.streamLabels.Add(1)
			case errors.Is(err, ErrSessionClosed), errors.Is(err, ErrManagerClosed):
				ack.Code, ack.Msg = wire.CodeUnavailable, err.Error()
			default:
				ack.Code, ack.Msg = wire.CodeBadRequest, err.Error()
			}
			fbScratch = wire.AppendLabelsApplied(fbScratch[:0], ack)
			if cw.write(wire.MsgLabelsApplied, fbScratch) != nil {
				sub.Abort()
				<-writerDone
				return true
			}
		default:
			// Only CREDIT, UNSUBSCRIBE and STREAM_LABELS are legal while
			// streaming.
			sub.Abort()
			<-writerDone
			return cw.writeErr(wire.CodeProto, fmt.Sprintf(
				"message type %d not allowed while streaming", typ)) != nil
		}
	}
}

// streamWriter owns the connection's write side for the life of one
// subscription: it blocks for published frames, batches what is already
// buffered (splitting on the payload cap), and finishes with the final ACK
// (clean unsubscribe) or a typed error (producing session closed). Every
// frame it dequeues is released once the write that carries it has
// returned, whether it succeeded or not; after a failed write it discards
// the rest of the queue.
func (s *TCPServer) streamWriter(sub *Subscription, conn net.Conn, cw *connWriter) error {
	// The writer's own marshaling state: it runs concurrently with the
	// stream read loop, so it must not share cw.scratch.
	var pw pushWriter
	for {
		items, dropped, ok := sub.Next()
		if !ok {
			break
		}
		for len(items) > 0 {
			n := wire.PushFit(len(items), func(i int) int { return items[i].ef.EncodedSize() }, s.cfg.MaxPayload)
			err := cw.writeVec(wire.MsgFramePush, pw.build(sub.ID(), dropped, items[:n]))
			clear(pw.parts) // hold no frame past its write
			release(items[:n])
			if err != nil {
				release(items[n:])
				sub.discard()
				return err
			}
			s.mgr.noteFramesPushed(n)
			items = items[n:]
		}
	}
	scratch := pw.scratch[:0]
	switch sub.Reason() {
	case ReasonUnsubscribed:
		// Echo the subscription id so the client can match the ack.
		scratch = wire.AppendUnsubscribe(scratch, wire.Unsubscribe{SubID: sub.ID()})
		return cw.write(wire.MsgAck, scratch)
	case ReasonSessionClosed:
		scratch = wire.AppendError(scratch, wire.CodeUnavailable,
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
// holds what is not stored in a frame — the push and record headers, each
// frame's RPXE header and its serialized row-offset table — and parts
// interleaves slices of it with each frame's own Pix and Mask bytes, in
// RPXE container order.
type pushWriter struct {
	scratch []byte
	cuts    []int // per frame: scratch offsets where its Pix, then its Mask go
	parts   [][]byte
}

// build returns the parts of one FRAME_PUSH payload carrying items. They
// alias the frames, so the frames must stay pinned until the write that
// sends the parts returns.
func (pw *pushWriter) build(subID, dropped uint64, items []pushItem) [][]byte {
	pw.scratch = wire.AppendFramePushHeader(pw.scratch[:0], subID, dropped, len(items))
	pw.cuts = pw.cuts[:0]
	for _, it := range items {
		ef := it.ef
		pw.scratch = wire.AppendPushRecordHeader(pw.scratch, it.seq, wire.CaptureAck{
			FrameIndex:    it.stats.FrameIndex,
			EncodedPixels: it.stats.EncodedPixels,
			EncodedBytes:  it.stats.EncodedBytes,
			PixelFraction: it.stats.PixelFraction,
		}, ef.EncodedSize())
		pw.scratch = ef.AppendHeader(pw.scratch)
		pw.cuts = append(pw.cuts, len(pw.scratch))
		pw.scratch = ef.AppendRowOffsets(pw.scratch)
		pw.cuts = append(pw.cuts, len(pw.scratch))
	}
	// Slice the scratch only now that it has stopped growing.
	pw.parts = pw.parts[:0]
	start := 0
	for i, it := range items {
		pix, mask := pw.cuts[2*i], pw.cuts[2*i+1]
		pw.parts = append(pw.parts, pw.scratch[start:pix], it.ef.Pix, pw.scratch[pix:mask], it.ef.Mask.Bytes())
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
