package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// ConnServer is the accept-and-drain loop rpxd's TCPServer and rpxgw's
// Gateway share. Serve runs one handler goroutine per accepted connection;
// Shutdown stops accepting, wakes every handler blocked in a client read,
// and waits for the handlers to return, force-closing their connections
// first if ctx expires. The zero value is ready to use once ReadTimeout is
// set.
type ConnServer struct {
	// ReadTimeout bounds each client read a handler arms with ArmRead.
	ReadTimeout time.Duration

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// Serve accepts connections until the listener is closed (via Shutdown),
// running handle on each in its own goroutine. It returns nil on graceful
// shutdown.
func (cs *ConnServer) Serve(ln net.Listener, handle func(net.Conn)) error {
	cs.mu.Lock()
	if cs.draining {
		cs.mu.Unlock()
		return errors.New("server: Serve called after Shutdown")
	}
	cs.ln = ln
	if cs.conns == nil {
		cs.conns = make(map[net.Conn]struct{})
	}
	cs.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			cs.mu.Lock()
			draining := cs.draining
			cs.mu.Unlock()
			if draining || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		cs.mu.Lock()
		if cs.draining {
			cs.mu.Unlock()
			conn.Close()
			continue
		}
		cs.conns[conn] = struct{}{}
		cs.wg.Add(1)
		cs.mu.Unlock()
		go func() {
			defer cs.wg.Done()
			handle(conn)
			cs.mu.Lock()
			delete(cs.conns, conn)
			cs.mu.Unlock()
		}()
	}
}

// Shutdown stops accepting, wakes handlers blocked in a client read, and
// waits for every handler to return. If ctx expires first it force-closes
// the remaining connections, still waits for their handlers, and returns
// ctx's error.
func (cs *ConnServer) Shutdown(ctx context.Context) error {
	cs.mu.Lock()
	cs.draining = true
	ln := cs.ln
	for conn := range cs.conns {
		conn.SetReadDeadline(time.Now())
	}
	cs.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		cs.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	cs.mu.Lock()
	for conn := range cs.conns {
		conn.Close()
	}
	cs.mu.Unlock()
	<-done
	return ctx.Err()
}

// ArmRead sets the deadline for a handler's next client read. Shutdown
// wakes blocked reads by expiring their deadlines; a handler that re-arms
// after that wake-up gets an expired deadline too, instead of blocking for
// a full ReadTimeout and stalling the drain.
func (cs *ConnServer) ArmRead(conn net.Conn) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	deadline := time.Now().Add(cs.ReadTimeout)
	if cs.draining {
		deadline = time.Now()
	}
	conn.SetReadDeadline(deadline)
}
