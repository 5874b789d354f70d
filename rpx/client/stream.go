package client

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/rpx"
)

// Streaming push.
//
// Subscribe dials a stream connection of its own: the server sends
// FRAME_PUSH batches as the target session captures frames, bounded by the
// credit the client has granted, until Close (a clean UNSUBSCRIBE) or a
// terminal server error ends the stream and its connection closes. The
// session that opened it keeps serving requests meanwhile.
//
// A Stream is a single-consumer object: Recv and Close must not be called
// concurrently with each other. Grant and SetLabels have their own write
// path and may be called from any goroutine (typically the one consuming
// frames).
//
// Any error ends the stream and only the stream: a transport error, a
// push that is malformed (its framing, or the header of a frame's RPXE
// container), or a terminal server error (the producing session closed),
// reported as a *wire.RemoteError. Every later Recv returns the same error;
// subscribe again to go on.

// SubscribeOptions parameterizes Subscribe.
type SubscribeOptions struct {
	// Target is the server-assigned id of the session whose frame stream
	// to attach to (another client's Session.ID()).
	Target uint64
	// Credit is the initial credit window in frames (0 = frames drop until
	// the first Grant). At most wire.MaxCreditWindow.
	Credit int
	// Batch bounds frames per FRAME_PUSH message (0 = 1, at most
	// wire.MaxBatch).
	Batch int
}

// StreamFrame is one pushed frame. Its Seq and Stats are read from the
// header of its RPXE container, which is all a push carries of a frame.
type StreamFrame struct {
	// Seq is the producing session's frame index for this frame, the u32
	// the container stores. A gap between consecutive frames' Seq means the
	// subscription was out of credit and frames were dropped.
	Seq uint64
	// Stats are the frame's capture statistics, identical to what the
	// producer's Capture call returned.
	Stats rpx.CaptureStats
	// Dropped is the subscription's cumulative dropped-frame count as of
	// the push that carried this frame.
	Dropped uint64
	// Raw is the encoded frame in the RPXE container framing —
	// byte-identical to an rpx.System's LastEncoded().WriteTo for the same
	// frame. It points into the stream's receive buffer and is valid until
	// the next Recv or Close on the stream: copy it to keep it longer.
	Raw []byte
}

// Decode unpacks the frame's RPXE container into a new EncodedFrame, which
// stays valid after Raw is overwritten.
func (f *StreamFrame) Decode() (*rpx.EncodedFrame, error) {
	return core.ReadEncodedFrame(bytes.NewReader(f.Raw))
}

// LabelsApplied reports the outcome of one in-stream SetLabels: the first
// frame sequence number captured under the new workload, or the server's
// rejection. Every pushed frame with Seq >= AppliedSeq observed the new
// labels; every earlier frame the previous ones.
type LabelsApplied struct {
	// AppliedSeq is the deterministic label boundary (valid when Err is nil).
	AppliedSeq uint64
	// Err is nil on success, else the server's *wire.RemoteError.
	Err error
}

// Stream is an open push subscription on a connection of its own.
type Stream struct {
	// s is the session that opened the stream; its payload cap and
	// timeout, which Dial set once, bound the stream's messages too.
	s    *Session
	conn net.Conn
	br   *bufio.Reader
	mw   *wire.MessageWriter // Grant, SetLabels and Close write concurrently
	// rbuf receives every message the stream reads; push and buf hold the
	// last FRAME_PUSH's records and the frames Recv has yet to return, from
	// index next on, whose Raw slices point into rbuf. All are reused
	// message to message, so a steady stream receives without allocating.
	rbuf []byte
	push wire.FramePush
	buf  []StreamFrame
	next int
	// done and err record how the stream ended. Grant and SetLabels read
	// them from other goroutines, so both are guarded by mu.
	mu   sync.Mutex
	done bool
	err  error

	// onApplied, when set, receives each LABELS_APPLIED synchronously from
	// the goroutine calling Recv.
	onApplied func(LabelsApplied)
}

// Subscribe opens a push stream of the target session's frames on a new
// connection to the session's server.
func (s *Session) Subscribe(opts SubscribeOptions) (*Stream, error) {
	if opts.Credit < 0 || opts.Credit > wire.MaxCreditWindow {
		return nil, fmt.Errorf("client: subscribe credit %d outside [0, %d]", opts.Credit, wire.MaxCreditWindow)
	}
	if opts.Batch < 0 || opts.Batch > wire.MaxBatch {
		return nil, fmt.Errorf("client: subscribe batch %d outside [0, %d]", opts.Batch, wire.MaxBatch)
	}
	req := wire.MarshalSubscribe(wire.Subscribe{
		Target: opts.Target,
		Credit: uint32(opts.Credit),
		Batch:  uint32(opts.Batch),
	})
	conn, br, _, err := wire.Dial(s.addr, s.dialTimeout, wire.MsgSubscribe, req, s.maxPayload, s.timeout)
	if err != nil {
		return nil, fmt.Errorf("client: subscribe: %w", err)
	}
	st := &Stream{
		s:    s,
		conn: conn,
		br:   br,
		mw:   wire.NewMessageWriter(conn),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		conn.Close()
		return nil, errSessionClosed
	}
	s.streams[st] = struct{}{}
	return st, nil
}

// end records how the stream ended, unless it already has, closes its
// connection and takes it off its session's list. It returns the error the
// stream ended with.
func (st *Stream) end(err error) error {
	st.mu.Lock()
	if !st.done {
		st.done, st.err = true, err
	}
	err = st.err
	st.mu.Unlock()
	st.conn.Close()
	st.s.mu.Lock()
	delete(st.s.streams, st)
	st.s.mu.Unlock()
	return err
}

// ended reports whether the stream has ended and the error it ended with.
func (st *Stream) ended() (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.done, st.err
}

// Recv returns the next pushed frame, reading FRAME_PUSH batches off the
// wire as needed. It returns io.EOF after a clean Close, the terminal
// *wire.RemoteError if the server ended the stream, or the error that
// ended it: a transport error, or a push whose framing or container header
// is malformed, of which it returns no frame.
func (st *Stream) Recv() (StreamFrame, error) {
	for {
		if st.next < len(st.buf) {
			st.next++
			return st.buf[st.next-1], nil
		}
		if done, err := st.ended(); done {
			return StreamFrame{}, err
		}
		typ, payload, err := st.readMsg()
		if err != nil {
			return StreamFrame{}, st.end(fmt.Errorf("client: stream receive: %w", err))
		}
		switch typ {
		case wire.MsgFramePush:
			err = st.buffer(payload)
		case wire.MsgLabelsApplied:
			err = st.noteApplied(payload)
		case wire.MsgError:
			err = streamError(payload)
		default:
			err = fmt.Errorf("client: got message type %d while streaming", typ)
		}
		if err != nil {
			return StreamFrame{}, st.end(err)
		}
	}
}

// noteApplied validates one LABELS_APPLIED payload and hands it to the
// callback.
func (st *Stream) noteApplied(payload []byte) error {
	la, err := wire.UnmarshalLabelsApplied(payload)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	out := LabelsApplied{AppliedSeq: la.AppliedSeq}
	if la.Code != 0 {
		out.Err = &wire.RemoteError{Code: la.Code, Message: la.Msg}
	}
	if st.onApplied != nil {
		st.onApplied(out)
	}
	return nil
}

// OnLabelsApplied installs the callback that receives each SetLabels
// outcome, called synchronously from the goroutine inside Recv. Set it
// before the first SetLabels: an outcome that arrives with no callback
// installed is dropped.
func (st *Stream) OnLabelsApplied(fn func(LabelsApplied)) { st.onApplied = fn }

// SetLabels pushes a region-label workload back to the subscription's
// target session on the stream's own connection — the closed-loop feedback
// path. The write returns immediately; the server's acknowledgment (the
// first frame sequence number captured under the new labels, or a
// rejection) is delivered through Recv to the OnLabelsApplied callback.
// Like Grant, it is safe to call while another goroutine blocks in Recv.
func (st *Stream) SetLabels(labels []rpx.RegionLabel) error {
	return st.send(wire.MsgStreamLabels, wire.MarshalLabels(labels), "stream labels")
}

// streamError decodes the ERROR that ended a stream: the server's
// *wire.RemoteError, or why it cannot be read.
func streamError(payload []byte) error {
	re, err := wire.UnmarshalError(payload)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	return re
}

// send writes one client-to-server stream message (CREDIT, STREAM_LABELS,
// UNSUBSCRIBE). The MessageWriter serializes it against any concurrent
// write and emits the whole message in one vectored write, so it can never
// tear another in-flight message.
func (st *Stream) send(typ byte, payload []byte, what string) error {
	if done, err := st.ended(); done {
		return err
	}
	st.conn.SetWriteDeadline(time.Now().Add(st.s.timeout))
	if err := st.mw.WriteMessage(typ, payload, st.s.maxPayload); err != nil {
		return st.end(fmt.Errorf("client: %s: %w", what, err))
	}
	return nil
}

// readMsg reads one message off the stream's connection into the stream's
// receive buffer, which invalidates the Raw bytes of every frame Recv has
// returned.
func (st *Stream) readMsg() (byte, []byte, error) {
	st.conn.SetReadDeadline(time.Now().Add(st.s.timeout))
	return wire.ReadMessageInto(st.br, &st.rbuf, st.s.maxPayload)
}

// buffer validates one FRAME_PUSH payload, and the header of each frame's
// container, and queues its frames; it queues none of them if any is
// malformed.
func (st *Stream) buffer(payload []byte) error {
	p := &st.push
	st.buf, st.next = st.buf[:0], 0
	if err := wire.UnmarshalFramePushInto(payload, p); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	for i, raw := range p.Frames {
		h, err := core.ParseEncodedHeader(raw)
		if err != nil {
			st.buf = st.buf[:0]
			return fmt.Errorf("client: FRAME_PUSH record %d: %w", i, err)
		}
		// rpx.System.Capture's arithmetic, on the header's figures.
		st.buf = append(st.buf, StreamFrame{
			Seq: uint64(h.FrameIndex),
			Stats: rpx.CaptureStats{
				FrameIndex:    h.FrameIndex,
				EncodedPixels: h.NumEncodedPixels(),
				EncodedBytes:  h.TotalBytes(),
				PixelFraction: float64(h.NumEncodedPixels()) / float64(h.W*h.H),
			},
			Dropped: p.Dropped,
			Raw:     raw,
		})
	}
	return nil
}

// Grant gives the server n more push credits (1 <= n <=
// wire.MaxCreditWindow; the server clamps the total outstanding window).
// Safe to call while another goroutine blocks in Recv — grants ride the
// connection's write side, pushes its read side.
func (st *Stream) Grant(n int) error {
	if n <= 0 || n > wire.MaxCreditWindow {
		return fmt.Errorf("client: grant %d outside [1, %d]", n, wire.MaxCreditWindow)
	}
	return st.send(wire.MsgCredit, wire.MarshalCredit(uint32(n)), "stream grant")
}

// Close unsubscribes cleanly: it sends UNSUBSCRIBE, then reads and discards
// remaining pushes until the server's final ACK, and closes the stream's
// connection. After Close, Recv returns io.EOF. Close must not be called
// concurrently with Recv.
func (st *Stream) Close() error {
	if done, _ := st.ended(); done {
		return nil
	}
	if err := st.send(wire.MsgUnsubscribe, nil, "unsubscribe"); err != nil {
		return err
	}
	for {
		typ, payload, err := st.readMsg()
		if err != nil {
			return st.end(fmt.Errorf("client: unsubscribe: %w", err))
		}
		switch typ {
		case wire.MsgFramePush:
			// Frames that were already in flight when we unsubscribed;
			// discarded by choice — Recv before Close to keep them.
		case wire.MsgLabelsApplied:
			// A SetLabels acknowledgment that was in flight when we
			// unsubscribed; deliver it so the outcome is not lost.
			err = st.noteApplied(payload)
		case wire.MsgAck:
			st.end(io.EOF)
			return nil
		case wire.MsgError:
			err = streamError(payload)
		default:
			err = fmt.Errorf("client: got message type %d awaiting unsubscribe ack", typ)
		}
		if err != nil {
			return st.end(err)
		}
	}
}
