package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/wire"
)

// Streaming relay.
//
// A SUBSCRIBE-first connection is a stream. Its target names a session by
// the id its client holds, and the gateway routes only to sessions it
// proxies: it dials the backend that holds the target, sends the SUBSCRIBE
// with the target rewritten to the session's current remote id, relays its
// ACK, and then runs two pumps over that backend connection of the
// stream's own — backend→client for FRAME_PUSH batches, LABELS_APPLIED
// and the stream's terminal message, client→backend for CREDIT,
// STREAM_LABELS and UNSUBSCRIBE. Both pumps move whole messages (one read,
// one WriteMessage), so a relayed frame is never torn even when a backend
// dies mid-stream: the client sees complete messages or a closed
// connection, nothing in between. Each pump reads into one buffer it
// reuses for the stream's life; a message is written out before the next
// read overwrites it.
//
// Streams do not migrate. When the target's session migrates, its old
// backend session closes and ends the stream with a typed UNAVAILABLE
// error; when the backend dies, the gateway sends that error itself. The
// client may subscribe again by the same id, which then resolves on the
// session's new backend.

// relayStream serves one stream connection from its SUBSCRIBE to the end of
// the stream, when the client connection closes. The subscribe op latency
// covers the SUBSCRIBE's round trip only: from here to relaying its one
// reply, an ack or an error.
func (g *Gateway) relayStream(c *clientConn, payload []byte) {
	start := time.Now()
	reply := func(typ byte, payload []byte) error {
		err := c.write(typ, payload)
		g.observe(wire.MsgSubscribe, start)
		return err
	}
	req, err := wire.UnmarshalSubscribe(payload)
	if err != nil {
		reply(wire.MsgError, wire.MarshalError(wire.CodeProto, err.Error()))
		return
	}
	g.mu.Lock()
	s := g.sessions[req.Target]
	g.mu.Unlock()
	if s == nil {
		reply(wire.MsgError, wire.MarshalError(wire.CodeBadRequest, fmt.Sprintf(
			"SUBSCRIBE target session %d is not proxied by this gateway", req.Target)))
		return
	}
	bconn, bbr, ack, err := s.subscribe(req)
	if err != nil {
		var re *wire.RemoteError
		if !errors.As(err, &re) {
			re = &wire.RemoteError{Code: wire.CodeUnavailable, Message: fmt.Sprintf(
				"subscribe to session %d: %v", req.Target, err)}
		}
		reply(wire.MsgError, wire.MarshalError(re.Code, re.Message))
		return
	}
	defer bconn.Close()
	if reply(wire.MsgAck, ack) != nil {
		return
	}

	// Downstream pump: backend→client until the stream's terminal message
	// (final ACK or ERROR) or a transport failure on either side. The
	// stream is then over, so it closes the client connection, which also
	// ends the upstream loop's read.
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		defer c.conn.Close()
		var buf []byte
		for {
			bconn.SetReadDeadline(time.Now().Add(g.cfg.ReadTimeout))
			typ, payload, err := wire.ReadMessageInto(bbr, &buf, g.cfg.MaxPayload)
			if err != nil {
				// The backend died mid-stream (possibly mid-batch): the
				// client gets the typed error, never a torn FRAME_PUSH.
				c.writeErr(wire.CodeUnavailable, fmt.Sprintf("backend failed mid-stream: %v", err))
				return
			}
			if c.write(typ, payload) != nil || typ == wire.MsgAck || typ == wire.MsgError {
				return
			}
		}
	}()

	// Upstream loop: client→backend until either connection fails.
	for {
		typ, payload, err := c.read()
		if err != nil {
			break
		}
		bconn.SetWriteDeadline(time.Now().Add(g.cfg.BackendTimeout))
		if wire.WriteMessage(bconn, typ, payload, g.cfg.MaxPayload) != nil {
			break
		}
	}
	bconn.Close()
	<-pumpDone
}

// subscribe opens a stream on the session's current backend: it dials the
// backend and sends req with its target rewritten to the session's remote
// id there, returning the stream's backend connection and the raw ACK
// payload. It holds the session lock throughout, so a migration
// cannot move the session between the lookup and the attach. A backend
// rejection is returned wrapping its *wire.RemoteError.
func (s *proxySession) subscribe(req wire.Subscribe) (net.Conn, *bufio.Reader, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bconn == nil {
		return nil, nil, nil, errors.New("the session is between backends")
	}
	req.Target = s.remoteID
	return wire.Dial(s.backendAddr, s.gw.cfg.DialTimeout, wire.MsgSubscribe, wire.MarshalSubscribe(req),
		s.gw.cfg.MaxPayload, s.gw.cfg.BackendTimeout)
}
