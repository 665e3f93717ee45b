// Package wire implements the framed JSON protocol the maintenance control
// plane speaks over TCP: 4-byte big-endian length prefix, then a JSON
// envelope {v, id, type, payload | error}. It is the transport beneath the
// robot service API (§2: "controlled by a service API"), used by robotd,
// selfmaintd and maintctl.
//
// The protocol is deliberately simple: request/response with client-chosen
// IDs, no streaming, bounded frame sizes, and version checking — the shape
// of countless production control-plane protocols, implemented on the
// standard library only.
package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Version is the protocol version carried in every envelope.
const Version = 1

// MaxFrame bounds a frame's payload size (16 MiB); larger frames are
// rejected to keep a misbehaving peer from ballooning memory.
const MaxFrame = 16 << 20

// Envelope is the on-wire message.
type Envelope struct {
	V       int             `json:"v"`
	ID      uint64          `json:"id"`
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// ErrBadVersion is returned when a peer speaks a different version.
var ErrBadVersion = errors.New("wire: protocol version mismatch")

// WriteFrame writes one envelope to w.
func WriteFrame(w io.Writer, env *Envelope) error {
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("wire: marshal: %w", err)
	}
	if len(data) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadFrame reads one envelope from r.
func ReadFrame(r io.Reader) (*Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	// Read through a limit rather than into a buffer of the announced size,
	// so memory follows the bytes the peer actually sends.
	data, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if len(data) < int(n) {
		return nil, io.ErrUnexpectedEOF
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("wire: unmarshal: %w", err)
	}
	if env.V != Version {
		return nil, ErrBadVersion
	}
	return &env, nil
}

// Handler serves one request: it receives the request type and raw payload
// and returns a response value (marshalled to JSON) or an error (sent as an
// error envelope).
type Handler func(reqType string, payload json.RawMessage) (any, error)

// Server accepts connections and serves requests with a Handler. Requests
// on one connection are served sequentially (the robot control plane is
// state-mutating; per-connection ordering is part of the contract), while
// connections are served concurrently.
type Server struct {
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer starts a server on addr (e.g. "127.0.0.1:0").
func NewServer(addr string, h Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		req, err := ReadFrame(br)
		if err != nil {
			return
		}
		resp := Envelope{V: Version, ID: req.ID, Type: req.Type}
		result, err := s.handler(req.Type, req.Payload)
		if err != nil {
			resp.Error = err.Error()
		} else if result != nil {
			data, err := json.Marshal(result)
			if err != nil {
				resp.Error = "wire: response marshal: " + err.Error()
			} else {
				resp.Payload = data
			}
		}
		if err := WriteFrame(bw, &resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// Close stops accepting and closes all connections, waiting for handlers
// to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	//lint:allow mapiter connection teardown; close order is unobservable (wire is transport, not simulation output)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Client is a synchronous request/response client. It is safe for
// concurrent use; calls are serialized on the wire (matching the server's
// per-connection ordering contract).
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	next uint64
}

// Dial connects to a wire server.
func Dial(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}, nil
}

// Call sends a request and decodes the response into resp (which may be nil
// to discard). Context deadlines map to socket deadlines.
func (c *Client) Call(ctx context.Context, reqType string, req, resp any) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("wire: request marshal: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	id := c.next
	if dl, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(dl)
		defer c.conn.SetDeadline(time.Time{})
	}
	env := Envelope{V: Version, ID: id, Type: reqType, Payload: payload}
	if err := WriteFrame(c.bw, &env); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	reply, err := ReadFrame(c.br)
	if err != nil {
		return err
	}
	if reply.ID != id {
		return fmt.Errorf("wire: response id %d for request %d", reply.ID, id)
	}
	if reply.Error != "" {
		return &RemoteError{Type: reqType, Msg: reply.Error}
	}
	if resp != nil && len(reply.Payload) > 0 {
		if err := json.Unmarshal(reply.Payload, resp); err != nil {
			return fmt.Errorf("wire: response unmarshal: %w", err)
		}
	}
	return nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// RemoteError is an error returned by the remote handler.
type RemoteError struct {
	Type string
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string { return fmt.Sprintf("remote %s: %s", e.Type, e.Msg) }
