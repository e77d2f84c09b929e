package main

// A minimal HTTP/1.1 keep-alive client. Each closed-loop caller owns one
// connection and writes its request and reads the reply on its own
// goroutine, reusing its buffers, so the generator takes as little as it can
// of the cores it shares with the daemon.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
)

type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

func newClient(addr string) *client { return &client{addr: addr} }

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one request and returns the reply's status and body. The body
// aliases a buffer the next call reuses. A transport error drops the
// connection; the next call dials a new one.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 64<<10)
	}
	status, reply, err := c.roundTrip(method, path, body)
	if err != nil {
		c.close()
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return status, reply, nil
}

func (c *client) roundTrip(method, path string, body []byte) (int, []byte, error) {
	b := append(c.req[:0], method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.req = b
	if _, err := c.conn.Write(b); err != nil {
		return 0, nil, err
	}

	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := atoi(line[9:12])
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		key, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			if length, err = atoi(val); err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", val)
			}
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(key, []byte("Connection")):
			closing = bytes.EqualFold(val, []byte("close"))
		}
	}

	c.body = c.body[:0]
	switch {
	case status == http.StatusNoContent || status == http.StatusNotModified || status < 200:
	case chunked:
		if err := c.readChunked(); err != nil {
			return 0, nil, err
		}
	case length >= 0:
		c.body = slices.Grow(c.body, length)[:length]
		if _, err := io.ReadFull(c.br, c.body); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, fmt.Errorf("reply with status %d has no length", status)
	}
	if closing {
		c.close()
	}
	return status, c.body, nil
}

// readChunked reads a chunked body into c.body.
func (c *client) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		hex, _, _ := bytes.Cut(bytes.TrimSpace(line), []byte(";"))
		n, err := strconv.ParseUint(string(hex), 16, 31)
		if err != nil {
			return fmt.Errorf("malformed chunk size %q", line)
		}
		if n == 0 {
			for { // trailer, up to the empty line
				line, err = c.br.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(line) <= 2 {
					return nil
				}
			}
		}
		start := len(c.body)
		c.body = slices.Grow(c.body, int(n))[:start+int(n)]
		if _, err := io.ReadFull(c.br, c.body[start:]); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil { // the chunk's CRLF
			return err
		}
	}
}

// atoi parses a non-negative decimal without allocating.
func atoi(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty number")
	}
	n := 0
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, fmt.Errorf("not a number: %q", b)
		}
		n = n*10 + int(d-'0')
	}
	return n, nil
}
