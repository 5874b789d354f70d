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
// A SUBSCRIBE switches the proxied connection into push mode: the gateway
// forwards the subscribe, relays the SUBSCRIBE_ACK, and then runs two pumps
// — backend→client for FRAME_PUSH batches and the stream's terminal
// message, client→backend for CREDIT grants and UNSUBSCRIBE. Both pumps
// move whole messages (one read, one WriteMessage), so a relayed frame is
// never torn even when the gateway dies mid-stream: the client sees
// complete messages or a closed connection, nothing in between. Each pump
// reads into one buffer it reuses for the stream's life; a message is
// written out before the next read overwrites it.
//
// Cross-backend fan-out: SUBSCRIBE targets name server-assigned session
// ids, and a subscription is served by the backend that holds the target.
// rpxd draws its ids at random, so an id names one session across the
// fleet. The gateway remembers which backend each proxied session's remote
// id lives on and migrates the subscriber onto the producer's backend
// (replaying HELLO and labels, the normal migration path) before
// forwarding the subscribe.
//
// Streams do not migrate: if the backend dies mid-stream the gateway ends
// the stream with a typed UNAVAILABLE error — never a torn or reordered
// frame — and the session migrates on its next request; the client may
// simply re-subscribe.

// setRemotePin records which backend assigned a remote session id.
func (g *Gateway) setRemotePin(id uint64, addr string) {
	g.mu.Lock()
	g.remotePins[id] = addr
	g.mu.Unlock()
}

// dropRemotePin forgets a remote session id pin.
func (g *Gateway) dropRemotePin(id uint64) {
	g.mu.Lock()
	delete(g.remotePins, id)
	g.mu.Unlock()
}

// remotePinBackend resolves a remote session id to the backend that
// assigned it.
func (g *Gateway) remotePinBackend(id uint64) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	addr, ok := g.remotePins[id]
	return addr, ok
}

// relayStream serves one SUBSCRIBE and, on success, the whole push stream.
// It returns the connection's next state: ok=false ends the connection;
// otherwise pendingTyp/pendingPayload, when non-zero, carry a request that
// arrived after the stream ended server-side and must be served normally.
// Client messages are read into cbuf, the connection's read buffer, which
// also holds payload and the pending payload. The subscribe op latency
// covers the SUBSCRIBE's round trip only: from here to relaying its one
// reply, an ack or an error.
func (s *proxySession) relayStream(conn net.Conn, cbr *bufio.Reader, cbuf *[]byte, writeClient func(typ byte, payload []byte) error, payload []byte) (pendingTyp byte, pendingPayload []byte, ok bool) {
	g := s.gw
	start := time.Now()
	reply := func(typ byte, payload []byte) error {
		err := writeClient(typ, payload)
		g.observe(wire.MsgSubscribe, start)
		return err
	}
	writeErr := func(code uint16, msg string) bool {
		return reply(wire.MsgError, wire.MarshalError(code, msg)) == nil
	}

	req, err := wire.UnmarshalSubscribe(payload)
	if err != nil {
		return 0, nil, writeErr(wire.CodeProto, err.Error())
	}

	s.mu.Lock()
	// Place the session if evacuation left it backend-less.
	if s.bconn == nil {
		if merr := s.migrateLocked(""); merr != nil {
			s.mu.Unlock()
			return 0, nil, writeErr(wire.CodeUnavailable, fmt.Sprintf("session unplaced: %v", merr))
		}
	}
	// Cross-backend target: follow the producer. The subscriber's own
	// remote session is rebuilt on the producer's backend (HELLO and labels
	// replayed), exactly like a health-driven migration, and placed there
	// by pick with every other backend excluded.
	if req.Target != 0 && req.Target != s.remoteID {
		if addr, found := g.remotePinBackend(req.Target); found && addr != s.backendAddr {
			aerr := errors.New("that backend is draining or dead")
			if g.pick(func(a string) bool { return a != addr }) == addr {
				s.closeBackendLocked()
				_, aerr = s.adoptBackendLocked(addr)
			}
			if aerr != nil {
				s.mu.Unlock()
				return 0, nil, writeErr(wire.CodeUnavailable, fmt.Sprintf(
					"target session %d is on %s, migration failed: %v", req.Target, addr, aerr))
			}
			g.rerouted.Inc()
		}
		// Unknown targets forward as-is: the backend answers BAD_REQUEST,
		// relayed verbatim.
	}
	// Forward the SUBSCRIBE and read its one reply in lockstep. A backend
	// failure here is not retried elsewhere — the target id would mean a
	// different session on a different backend — but the session migrates
	// for subsequent requests.
	rtyp, rpayload, ferr := s.forwardLocked(wire.MsgSubscribe, payload)
	if ferr != nil {
		failed := s.backendAddr
		s.migrateLocked(failed)
		s.mu.Unlock()
		return 0, nil, writeErr(wire.CodeUnavailable, fmt.Sprintf("backend failed during subscribe: %v", ferr))
	}
	bconn, bbr := s.bconn, s.bbr
	s.mu.Unlock()

	if reply(rtyp, rpayload) != nil {
		return 0, nil, false
	}
	if rtyp != wire.MsgSubscribeAck {
		// Deterministic rejection (bad target, closed session): relayed, the
		// connection stays in request/reply mode.
		return 0, nil, true
	}

	// Downstream pump: backend→client until the stream's terminal message
	// (final ACK or ERROR) or a transport failure on either side. It owns
	// the client's write side until pumpDone closes. ended, guarded by
	// s.mu, is set before a relayed terminal message reaches the client.
	// Both pumps touch only the stream's own bconn: an evacuation may have
	// moved the session to a replacement connection, which is not theirs
	// to close or write to.
	pumpDone := make(chan struct{})
	ended := false
	go func() {
		defer close(pumpDone)
		var buf []byte
		for {
			bconn.SetReadDeadline(time.Now().Add(g.cfg.ReadTimeout))
			typ, payload, err := wire.ReadMessageInto(bbr, &buf, g.cfg.MaxPayload)
			if err != nil {
				// Backend died mid-stream (possibly mid-batch), or an
				// evacuation closed it: the client gets the typed error,
				// never a torn FRAME_PUSH — this pump only ever forwards
				// whole messages.
				s.mu.Lock()
				if s.bconn == bconn {
					s.closeBackendLocked()
				}
				s.mu.Unlock()
				writeClient(wire.MsgError, wire.MarshalError(wire.CodeUnavailable,
					fmt.Sprintf("backend failed mid-stream: %v", err)))
				return
			}
			terminal := typ == wire.MsgAck || typ == wire.MsgError
			if terminal {
				s.mu.Lock()
				ended = true
				s.mu.Unlock()
			}
			if writeClient(typ, payload) != nil {
				// Client gone; the upstream loop will notice on its read.
				bconn.Close()
				return
			}
			if terminal {
				return // stream finished cleanly (or with a relayed error)
			}
		}
	}()

	// Upstream loop: client→backend for CREDIT, UNSUBSCRIBE and
	// STREAM_LABELS. Any client message that arrives after the stream ended
	// server-side is handed back to the request/reply loop, which drops
	// stream messages.
	for {
		g.ArmRead(conn)
		typ, payload, err := wire.ReadMessageInto(cbr, cbuf, g.cfg.MaxPayload)
		if err != nil {
			s.mu.Lock()
			if s.bconn == bconn {
				s.closeBackendLocked()
			}
			s.mu.Unlock()
			<-pumpDone
			return 0, nil, false
		}
		select {
		case <-pumpDone:
			// The stream already ended (terminal error relayed); this is
			// the session's next normal request.
			return typ, payload, true
		default:
		}
		s.mu.Lock()
		// Once the terminal message is relayed, the stream is over on the
		// backend too: forwarding a request into it would lose it, and a
		// stream message would draw a reply nobody reads. A session that
		// left bconn is over with this stream the same way.
		if s.bconn != bconn || ended {
			// The stream ended between the pump's teardown and our check.
			s.mu.Unlock()
			<-pumpDone
			return typ, payload, true
		}
		bconn.SetWriteDeadline(time.Now().Add(g.cfg.BackendTimeout))
		werr := wire.WriteMessage(bconn, typ, payload, g.cfg.MaxPayload)
		s.mu.Unlock()
		if werr != nil {
			// The pump sees the same failure and reports it downstream.
			<-pumpDone
			continue
		}
		if typ == wire.MsgUnsubscribe {
			// The backend drains and acks; the pump relays and finishes.
			<-pumpDone
			return 0, nil, true
		}
	}
}
