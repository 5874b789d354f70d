package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/rpx"
)

// Streaming push mode.
//
// Subscribe switches the session from request/reply to server push: the
// server sends FRAME_PUSH batches as frames are captured, bounded by the
// credit the client has granted, until Close (a clean UNSUBSCRIBE) or a
// terminal server error ends the stream and the session returns to
// request/reply. While a stream is open every normal call fails with
// ErrStreaming — the connection's framing belongs to the stream.
//
// A Stream is a single-consumer object: Recv and Close must not be called
// concurrently with each other. Grant has its own write path and may be
// called from any goroutine (typically the one consuming frames).
//
// Failure semantics mirror the session's (see the package comment): any
// transport error poisons the underlying session, the failing stream call
// returns the error, and later calls fail with ErrBrokenSession. A terminal
// server error (the producing session closed) ends only the stream — it is
// reported as a *wire.RemoteError and the session stays usable.

// ErrStreaming is returned by request/reply calls while a push stream owns
// the connection.
var ErrStreaming = errors.New("client: session is in streaming mode")

// SubscribeOptions parameterizes Subscribe.
type SubscribeOptions struct {
	// Target selects the session whose frame stream to attach to: 0 means
	// this session's own stream, otherwise a server-assigned session id
	// (another client's Session.ID()) for cross-session fan-out.
	Target uint64
	// Credit is the initial credit window in frames (0 = frames drop until
	// the first Grant). At most wire.MaxCreditWindow.
	Credit int
	// Batch bounds frames per FRAME_PUSH message (0 = 1, at most
	// wire.MaxBatch).
	Batch int
}

// StreamFrame is one pushed frame.
type StreamFrame struct {
	// Seq is the producing session's frame index for this frame. A gap
	// between consecutive frames' Seq means the subscription was out of
	// credit and frames were dropped.
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

// Stream is an open push subscription.
type Stream struct {
	s       *Session
	id      uint64
	nextSeq uint64
	// rbuf receives every message the stream reads; push and buf hold the
	// last FRAME_PUSH's records and the frames Recv has yet to return, from
	// index next on, whose Raw slices point into rbuf. All are reused
	// message to message, so a steady stream receives without allocating.
	rbuf []byte
	push wire.FramePush
	buf  []StreamFrame
	next int
	// done and err record how the stream ended. Grant and SetLabels read
	// them from other goroutines, so both are guarded by s.mu.
	done bool
	err  error

	// onApplied, when set, receives each LABELS_APPLIED synchronously from
	// the goroutine calling Recv; unset, outcomes queue in applied.
	onApplied func(LabelsApplied)
	applied   []LabelsApplied
}

// Subscribe opens a push stream. The session must not be broken, closed,
// or already streaming.
func (s *Session) Subscribe(opts SubscribeOptions) (*Stream, error) {
	if opts.Credit < 0 || opts.Credit > wire.MaxCreditWindow {
		return nil, fmt.Errorf("client: subscribe credit %d outside [0, %d]", opts.Credit, wire.MaxCreditWindow)
	}
	if opts.Batch < 0 || opts.Batch > wire.MaxBatch {
		return nil, fmt.Errorf("client: subscribe batch %d outside [0, %d]", opts.Batch, wire.MaxBatch)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("client: session closed")
	}
	if s.stream != nil {
		return nil, ErrStreaming
	}
	if s.broken {
		return nil, ErrBrokenSession
	}
	rtyp, rpayload, err := s.roundTripLocked(wire.MsgSubscribe, wire.MarshalSubscribe(wire.Subscribe{
		Target: opts.Target,
		Credit: uint32(opts.Credit),
		Batch:  uint32(opts.Batch),
	}))
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
	if rtyp != wire.MsgSubscribeAck {
		s.poisonLocked()
		return nil, fmt.Errorf("%w: got reply type %d, want %d", ErrBrokenSession, rtyp, wire.MsgSubscribeAck)
	}
	ack, err := wire.UnmarshalSubscribeAck(rpayload)
	if err != nil {
		s.poisonLocked()
		return nil, err
	}
	st := &Stream{s: s, id: ack.SubID, nextSeq: ack.NextSeq}
	s.stream = st
	return st, nil
}

// ID returns the server-assigned subscription id.
func (st *Stream) ID() uint64 { return st.id }

// NextSeq returns the sequence number of the first frame the subscription
// could observe (from the SUBSCRIBE_ACK).
func (st *Stream) NextSeq() uint64 { return st.nextSeq }

// failTransport poisons the session — stream framing is request/reply
// framing, a transport error desynchronizes both — and ends the stream.
func (st *Stream) failTransport(err error) error {
	st.s.mu.Lock()
	defer st.s.mu.Unlock()
	st.s.poisonLocked()
	st.endLocked(err)
	return err
}

// finish ends the stream without poisoning: the session's request/reply
// framing is intact and resumes.
func (st *Stream) finish(err error) {
	st.s.mu.Lock()
	defer st.s.mu.Unlock()
	st.endLocked(err)
}

// endLocked detaches the stream from its session and records how it
// ended. Callers hold s.mu.
func (st *Stream) endLocked(err error) {
	st.s.stream = nil
	st.done, st.err = true, err
}

// ended reports whether the stream has ended and the error it ended with.
func (st *Stream) ended() (bool, error) {
	st.s.mu.Lock()
	defer st.s.mu.Unlock()
	return st.done, st.err
}

// Recv returns the next pushed frame, reading FRAME_PUSH batches off the
// wire as needed. It returns io.EOF after a clean Close, and the terminal
// *wire.RemoteError if the server ended the stream (the session remains
// usable in both cases). Transport errors poison the session.
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
			return StreamFrame{}, st.failTransport(fmt.Errorf("client: stream receive: %w", err))
		}
		switch typ {
		case wire.MsgFramePush:
			if err := st.buffer(payload); err != nil {
				return StreamFrame{}, st.failTransport(err)
			}
		case wire.MsgLabelsApplied:
			if err := st.noteApplied(payload); err != nil {
				return StreamFrame{}, st.failTransport(err)
			}
		case wire.MsgError:
			re, uerr := wire.UnmarshalError(payload)
			if uerr != nil {
				return StreamFrame{}, st.failTransport(uerr)
			}
			st.finish(re)
			return StreamFrame{}, re
		default:
			return StreamFrame{}, st.failTransport(fmt.Errorf(
				"%w: got message type %d while streaming", ErrBrokenSession, typ))
		}
	}
}

// noteApplied validates one LABELS_APPLIED payload and dispatches it to the
// callback or the pending queue.
func (st *Stream) noteApplied(payload []byte) error {
	la, err := wire.UnmarshalLabelsApplied(payload)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if la.SubID != st.id {
		return fmt.Errorf("%w: LABELS_APPLIED for subscription %d, want %d", ErrBrokenSession, la.SubID, st.id)
	}
	out := LabelsApplied{AppliedSeq: la.AppliedSeq}
	if la.Code != 0 {
		out.Err = &wire.RemoteError{Code: la.Code, Message: la.Msg}
	}
	if st.onApplied != nil {
		st.onApplied(out)
		return nil
	}
	st.applied = append(st.applied, out)
	return nil
}

// OnLabelsApplied installs the callback that receives each SetLabels
// outcome, called synchronously from the goroutine inside Recv. Set it
// before the first SetLabels; without a callback, outcomes queue for
// TakeLabelsApplied instead.
func (st *Stream) OnLabelsApplied(fn func(LabelsApplied)) { st.onApplied = fn }

// TakeLabelsApplied drains the queued SetLabels outcomes accumulated by
// Recv when no callback is installed. Single-consumer, like Recv.
func (st *Stream) TakeLabelsApplied() []LabelsApplied {
	out := st.applied
	st.applied = nil
	return out
}

// SetLabels pushes a region-label workload back to the subscription's
// target session without leaving push mode — the closed-loop feedback
// path. The write returns immediately; the server's acknowledgment (the
// first frame sequence number captured under the new labels, or a
// rejection) is delivered through Recv to the OnLabelsApplied callback or
// the TakeLabelsApplied queue. Like Grant, it is safe to call while another
// goroutine blocks in Recv.
func (st *Stream) SetLabels(labels []rpx.RegionLabel) error {
	return st.send(wire.MsgStreamLabels, wire.MarshalStreamLabels(wire.StreamLabels{
		SubID:  st.id,
		Labels: labels,
	}), "stream labels")
}

// send writes one client-to-server stream message (CREDIT, STREAM_LABELS)
// on the connection's write side. The MessageWriter serializes it against
// any concurrent write and emits the whole message in one vectored write,
// so it can never tear another in-flight message.
func (st *Stream) send(typ byte, payload []byte, what string) error {
	if done, err := st.ended(); done {
		return err
	}
	s := st.s
	s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	if err := s.mw.WriteMessage(typ, payload, s.maxPayload); err != nil {
		return st.failTransport(fmt.Errorf("client: %s: %w", what, err))
	}
	return nil
}

// readMsg reads one message off the stream's connection into the stream's
// receive buffer, which invalidates the Raw bytes of every frame Recv has
// returned. The stream owns the read side while open (request/reply calls
// are locked out), so no session lock is needed.
func (st *Stream) readMsg() (byte, []byte, error) {
	s := st.s
	s.conn.SetReadDeadline(time.Now().Add(s.timeout))
	return wire.ReadMessageInto(s.br, &st.rbuf, s.maxPayload)
}

// buffer validates one FRAME_PUSH payload and queues its frames.
func (st *Stream) buffer(payload []byte) error {
	p := &st.push
	if err := wire.UnmarshalFramePushInto(payload, p); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if p.SubID != st.id {
		return fmt.Errorf("%w: FRAME_PUSH for subscription %d, want %d", ErrBrokenSession, p.SubID, st.id)
	}
	st.buf, st.next = st.buf[:0], 0
	for _, f := range p.Frames {
		st.buf = append(st.buf, StreamFrame{
			Seq: f.Seq,
			Stats: rpx.CaptureStats{
				FrameIndex:    f.Stats.FrameIndex,
				EncodedPixels: f.Stats.EncodedPixels,
				EncodedBytes:  f.Stats.EncodedBytes,
				PixelFraction: f.Stats.PixelFraction,
			},
			Dropped: p.Dropped,
			Raw:     f.Enc,
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
	return st.send(wire.MsgCredit, wire.MarshalCredit(wire.Credit{
		SubID: st.id,
		N:     uint32(n),
	}), "stream grant")
}

// Close unsubscribes cleanly: it sends UNSUBSCRIBE, then reads and discards
// remaining pushes until the server's final ACK, returning the session to
// request/reply mode. After Close, Recv returns io.EOF. Close must not be
// called concurrently with Recv.
func (st *Stream) Close() error {
	if done, _ := st.ended(); done {
		return nil
	}
	s := st.s
	s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	err := s.mw.WriteMessage(wire.MsgUnsubscribe, wire.MarshalUnsubscribe(wire.Unsubscribe{
		SubID: st.id,
	}), s.maxPayload)
	if err != nil {
		return st.failTransport(fmt.Errorf("client: unsubscribe: %w", err))
	}
	for {
		typ, payload, err := st.readMsg()
		if err != nil {
			return st.failTransport(fmt.Errorf("client: unsubscribe: %w", err))
		}
		switch typ {
		case wire.MsgFramePush:
			// Frames that were already in flight when we unsubscribed;
			// discarded by choice — Recv before Close to keep them.
		case wire.MsgLabelsApplied:
			// A SetLabels acknowledgment that was in flight when we
			// unsubscribed; queue it so the outcome is not lost.
			if err := st.noteApplied(payload); err != nil {
				return st.failTransport(err)
			}
		case wire.MsgAck:
			st.finish(io.EOF)
			return nil
		case wire.MsgError:
			re, uerr := wire.UnmarshalError(payload)
			if uerr != nil {
				return st.failTransport(uerr)
			}
			st.finish(re)
			return re
		default:
			return st.failTransport(fmt.Errorf(
				"%w: got message type %d awaiting unsubscribe ack", ErrBrokenSession, typ))
		}
	}
}
