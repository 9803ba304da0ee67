package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// rawConn is a minimal HTTP/1.1 keep-alive client over one TCP connection.
// Requests are pre-encoded byte strings and the response body lands in a
// reused buffer, so the generator spends microseconds, not net/http's
// allocations, per request and leaves the CPU to chronosd.
type rawConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialRaw(addr string) (*rawConn, error) {
	rc := &rawConn{addr: addr}
	return rc, rc.redial()
}

func (rc *rawConn) redial() error {
	if rc.c != nil {
		rc.c.Close()
	}
	c, err := net.DialTimeout("tcp", rc.addr, 2*time.Second)
	if err != nil {
		rc.c = nil
		return err
	}
	rc.c = c
	rc.br = bufio.NewReaderSize(c, 16<<10)
	return nil
}

func (rc *rawConn) Close() {
	if rc.c != nil {
		rc.c.Close()
	}
}

// postRequest pre-encodes one POST with a JSON body.
func postRequest(addr, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, addr, len(body))
	b.Write(body)
	return b.Bytes()
}

var errBadResponse = errors.New("malformed HTTP response")

// do writes one request and reads its response. The returned body aliases
// the connection's buffer and is valid until the next call. A transport
// error leaves the connection redialled (or nil) for the next request.
func (rc *rawConn) do(req []byte, deadline time.Time) (status int, body []byte, err error) {
	if rc.c == nil {
		if err := rc.redial(); err != nil {
			return 0, nil, err
		}
	}
	rc.c.SetDeadline(deadline)
	if _, err = rc.c.Write(req); err == nil {
		status, err = rc.readResponse()
	}
	if err != nil {
		rc.Close()
		rc.c = nil
		return 0, nil, err
	}
	return status, rc.body, nil
}

func (rc *rawConn) readResponse() (int, error) {
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, errBadResponse
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, errBadResponse
	}
	length, chunked, closeAfter := -1, false, false
	for {
		h, err := rc.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		colon := bytes.IndexByte(h, ':')
		if colon < 0 {
			return 0, errBadResponse
		}
		name, val := h[:colon], bytes.TrimSpace(h[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return 0, errBadResponse
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closeAfter = bytes.EqualFold(val, []byte("close"))
		}
	}
	switch {
	case chunked:
		err = rc.readChunked()
	case length >= 0:
		if cap(rc.body) < length {
			rc.body = make([]byte, length)
		}
		rc.body = rc.body[:length]
		_, err = io.ReadFull(rc.br, rc.body)
	default:
		return 0, errBadResponse
	}
	if err == nil && closeAfter {
		err = rc.redial()
	}
	return status, err
}

func (rc *rawConn) readChunked() error {
	rc.body = rc.body[:0]
	for {
		line, err := rc.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
		if err != nil || n < 0 {
			return errBadResponse
		}
		if n == 0 {
			_, err = rc.br.ReadSlice('\n') // trailer terminator
			return err
		}
		start := len(rc.body)
		rc.body = append(rc.body, make([]byte, n)...)
		if _, err := io.ReadFull(rc.br, rc.body[start:]); err != nil {
			return err
		}
		if _, err := rc.br.Discard(2); err != nil {
			return err
		}
	}
}
