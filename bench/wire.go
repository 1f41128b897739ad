package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"

	"repro/internal/server"
)

// wireConn is the bench's own minimal pipelined client for the
// protocol of internal/server/protocol.go:
//
//	request:  tag u32 | kind u8 | code u64 | nargs u8 | nargs × u64
//	response: tag u32 | status u8 | ret u64 | id u64
//
// It exists so that what the load generator costs is known and small:
// no goroutine, channel, map or lock per request — frames are encoded
// into a buffered writer and responses are decoded where the caller
// reads them. server.Client is measured separately as a layer probe,
// and the conformance test holds the two to identical answers so a
// protocol change breaks the benchmark loudly instead of skewing it.
type wireConn struct {
	c  net.Conn
	bw *bufio.Writer
	br *bufio.Reader
}

const (
	respBytes  = 4 + 1 + 8 + 8
	maxReqArgs = 3
)

// response is one decoded response frame.
type response struct {
	tag     uint32
	status  byte
	ret, id uint64
}

func dialWire(addr string) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireConn{c: c, bw: bufio.NewWriterSize(c, 1<<16), br: bufio.NewReaderSize(c, 1<<16)}, nil
}

// send encodes one request into the write buffer; flush puts it on the
// wire.
func (w *wireConn) send(tag uint32, kind byte, code uint64, args ...uint64) error {
	if len(args) > maxReqArgs {
		return fmt.Errorf("wire: %d args, protocol max %d", len(args), maxReqArgs)
	}
	var buf [4 + 1 + 8 + 1 + 8*maxReqArgs]byte
	binary.LittleEndian.PutUint32(buf[0:], tag)
	buf[4] = kind
	binary.LittleEndian.PutUint64(buf[5:], code)
	buf[13] = byte(len(args))
	n := 14
	for _, a := range args {
		binary.LittleEndian.PutUint64(buf[n:], a)
		n += 8
	}
	_, err := w.bw.Write(buf[:n])
	return err
}

func (w *wireConn) flush() error { return w.bw.Flush() }

// recv blocks for the next response. It peeks the whole frame before
// consuming it, so an error never leaves half a frame behind.
func (w *wireConn) recv() (response, error) {
	b, err := w.br.Peek(respBytes)
	if err != nil {
		return response{}, err
	}
	r := response{
		tag:    binary.LittleEndian.Uint32(b[0:]),
		status: b[4],
		ret:    binary.LittleEndian.Uint64(b[5:]),
		id:     binary.LittleEndian.Uint64(b[13:]),
	}
	_, err = w.br.Discard(respBytes)
	return r, err
}

// ready reports whether a whole response is already buffered, so recv
// would not block.
func (w *wireConn) ready() bool { return w.br.Buffered() >= respBytes }

func (w *wireConn) close() error { return w.c.Close() }

// call is one synchronous round trip (depth-1 probes, conformance).
func (w *wireConn) call(tag uint32, kind byte, code uint64, args ...uint64) (response, error) {
	if err := w.send(tag, kind, code, args...); err != nil {
		return response{}, err
	}
	if err := w.flush(); err != nil {
		return response{}, err
	}
	return w.recv()
}

// Request kinds, re-exported so the workloads name them once.
const (
	kindRead            = server.KindRead
	kindUpdatePersist   = server.KindUpdatePersist
	kindUpdateLinearize = server.KindUpdateLinearize
)
