package server

// Wire protocol: little-endian framed binary, pipelined. Requests and
// responses are correlated by a client-chosen 32-bit tag, so a client
// may keep any number of requests in flight on one connection and
// responses may arrive out of request order (a read is answered at
// once, overtaking updates that wait for their flush fence).
//
//	request:  tag u32 | kind u8 | code u64 | nargs u8 | nargs × u64
//	response: tag u32 | status u8 | ret u64 | id u64
//
// kind selects the operation; status is 0 for success, 2 for a
// quarantined instance (the client reports core.ErrObjectQuarantined)
// and 1 for any other server-side error (shutdown race, unknown kind;
// the client reports ErrServerClosed).
// Reads carry id 0 — they have no durability to detect, which is the
// paper's 0-fences-per-read guarantee surfacing in the protocol.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/core"
)

// Request kinds.
const (
	// KindUpdate is an update, answered after its covering flush fence.
	KindUpdate = byte('U')
	// KindUpdatePersist and KindUpdateLinearize are accepted aliases of
	// KindUpdate, so clients that send them keep working.
	KindUpdatePersist   = byte('P')
	KindUpdateLinearize = byte('L')
	// KindRead is a read; executed fence-free outside the batcher.
	KindRead = byte('R')
)

const maxArgs = 3

// Response status bytes.
const (
	statusOK          = 0
	statusFailed      = 1
	statusQuarantined = 2
)

// statusOf maps a request's outcome to its response status byte.
func statusOf(err error) byte {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, core.ErrObjectQuarantined):
		return statusQuarantined
	}
	return statusFailed
}

// errOf is statusOf's inverse on the client side.
func errOf(status byte) error {
	switch status {
	case statusOK:
		return nil
	case statusQuarantined:
		return core.ErrObjectQuarantined
	}
	return ErrServerClosed
}

func writeRequest(w io.Writer, tag uint32, kind byte, code uint64, args []uint64) error {
	if len(args) > maxArgs {
		return fmt.Errorf("server: %d args, protocol max %d", len(args), maxArgs)
	}
	var buf [4 + 1 + 8 + 1 + 8*maxArgs]byte
	binary.LittleEndian.PutUint32(buf[0:], tag)
	buf[4] = kind
	binary.LittleEndian.PutUint64(buf[5:], code)
	buf[13] = byte(len(args))
	n := 14
	for _, a := range args {
		binary.LittleEndian.PutUint64(buf[n:], a)
		n += 8
	}
	_, err := w.Write(buf[:n])
	return err
}

func readRequest(r *bufio.Reader) (tag uint32, kind byte, code uint64, args [maxArgs]uint64, nargs uint8, err error) {
	var hdr [14]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	tag = binary.LittleEndian.Uint32(hdr[0:])
	kind = hdr[4]
	code = binary.LittleEndian.Uint64(hdr[5:])
	nargs = hdr[13]
	if nargs > maxArgs {
		err = fmt.Errorf("server: frame claims %d args, protocol max %d", nargs, maxArgs)
		return
	}
	var ab [8 * maxArgs]byte
	if _, err = io.ReadFull(r, ab[:8*int(nargs)]); err != nil {
		return
	}
	for i := 0; i < int(nargs); i++ {
		args[i] = binary.LittleEndian.Uint64(ab[8*i:])
	}
	return
}

func writeResponse(w io.Writer, tag uint32, status byte, ret, id uint64) error {
	var buf [4 + 1 + 8 + 8]byte
	binary.LittleEndian.PutUint32(buf[0:], tag)
	buf[4] = status
	binary.LittleEndian.PutUint64(buf[5:], ret)
	binary.LittleEndian.PutUint64(buf[13:], id)
	_, err := w.Write(buf[:])
	return err
}

// Resp is one response as the client sees it.
type Resp struct {
	Ret uint64
	// ID is the op id for updates (usable with Report.WasLinearized
	// after a crash to detect whether an acked op survived); 0 for
	// reads.
	ID  uint64
	Err error
}

// Client is a pipelined protocol client: any number of calls may be in
// flight; a background goroutine dispatches responses by tag. Safe for
// concurrent use.
type Client struct {
	conn net.Conn
	wmu  sync.Mutex
	w    *bufio.Writer

	mu      sync.Mutex
	tags    map[uint32]chan Resp
	nextTag uint32
	rerr    error
	rdone   chan struct{}
}

// Dial connects to a server at network/addr ("tcp", "unix").
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

// newClient wraps an established connection and starts its read loop.
func newClient(conn net.Conn) *Client {
	c := &Client{
		conn:  conn,
		w:     bufio.NewWriter(conn),
		tags:  map[uint32]chan Resp{},
		rdone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	defer close(c.rdone)
	r := bufio.NewReader(c.conn)
	var buf [21]byte
	for {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			c.fail(err)
			return
		}
		tag := binary.LittleEndian.Uint32(buf[0:])
		resp := Resp{
			Ret: binary.LittleEndian.Uint64(buf[5:]),
			ID:  binary.LittleEndian.Uint64(buf[13:]),
			Err: errOf(buf[4]),
		}
		c.mu.Lock()
		ch := c.tags[tag]
		delete(c.tags, tag)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// fail resolves every outstanding call with err (connection dead).
func (c *Client) fail(err error) {
	c.mu.Lock()
	c.rerr = err
	for tag, ch := range c.tags {
		delete(c.tags, tag)
		ch <- Resp{Err: err}
	}
	c.mu.Unlock()
}

// Async sends one request and returns a 1-buffered channel that will
// receive its response (or the connection error).
func (c *Client) Async(kind byte, code uint64, args ...uint64) <-chan Resp {
	ch := make(chan Resp, 1)
	c.mu.Lock()
	if c.rerr != nil {
		err := c.rerr
		c.mu.Unlock()
		ch <- Resp{Err: err}
		return ch
	}
	c.nextTag++
	tag := c.nextTag
	c.tags[tag] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := writeRequest(c.w, tag, kind, code, args)
	if err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		// Resolve the call only if it is still ours to resolve: when the
		// reader's fail() (or a response) got there first it already
		// removed the tag and filled the 1-buffered channel, and a
		// second send would block forever.
		c.mu.Lock()
		mine := c.tags[tag] == ch
		if mine {
			delete(c.tags, tag)
		}
		c.mu.Unlock()
		if mine {
			ch <- Resp{Err: err}
		}
	}
	return ch
}

// Call is the synchronous wrapper around Async.
func (c *Client) Call(kind byte, code uint64, args ...uint64) (Resp, error) {
	r := <-c.Async(kind, code, args...)
	return r, r.Err
}

// Close tears the connection down; outstanding calls resolve with the
// resulting read error.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.rdone
	return err
}
