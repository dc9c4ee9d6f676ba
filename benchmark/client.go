package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to kwsd, driven synchronously:
// a request is one Write of pre-built bytes and the response is parsed on
// the calling goroutine, so the load generator adds no goroutine hand-offs
// to a sub-millisecond operation.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// request renders a complete HTTP/1.1 request once, ahead of the measured
// window. A nil body makes a GET.
func request(path string, body any) ([]byte, error) {
	var b bytes.Buffer
	if body == nil {
		fmt.Fprintf(&b, "GET %s HTTP/1.1\r\nHost: kwsd\r\n\r\n", path)
		return b.Bytes(), nil
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: kwsd\r\nContent-Type: application/json\r\nContent-Length: %s\r\n\r\n",
		path, strconv.Itoa(len(payload)))
	b.Write(payload)
	return b.Bytes(), nil
}

// do sends a pre-built request and reads the whole response. The body is
// copied into out when out is non-nil and discarded otherwise.
func (c *conn) do(req []byte, out io.Writer) (status int, err error) {
	if err := c.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	if out == nil {
		out = io.Discard
	}
	_, err = io.Copy(out, resp.Body)
	_ = resp.Body.Close() // fully read above; Close only releases the reader
	return resp.StatusCode, err
}

// getJSON issues a GET and decodes a 200 response into out.
func (c *conn) getJSON(path string, out any) error {
	req, _ := request(path, nil)
	return c.roundTripJSON(req, out)
}

// roundTripJSON sends req and decodes a 200 response into out.
func (c *conn) roundTripJSON(req []byte, out any) error {
	var buf bytes.Buffer
	status, err := c.do(req, &buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	return json.Unmarshal(buf.Bytes(), out)
}
