package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to ftserve, driven by one
// goroutine at a time. It writes each request in one call and parses the
// reply itself: net/http's client hands every request between several
// goroutines, and on a two-core machine shared with the server that
// scheduling shows up in the tail the benchmark is measuring. For the
// same reason the socket is a plain blocking one: the thread that sends a
// request sleeps in read(2) until the reply arrives and is woken by the
// kernel, where a net.Conn would be woken through the runtime's network
// poller on another thread.
type conn struct {
	addr string // host:port
	c    *sock
	br   *bufio.Reader
	wbuf []byte
}

// sock is a blocking TCP socket.
type sock struct{ fd int }

// dial connects a blocking socket to addr, with timeout on every read and
// write.
func dial(addr string, timeout time.Duration) (*sock, error) {
	ta, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	sa := &syscall.SockaddrInet4{Port: ta.Port}
	copy(sa.Addr[:], ta.IP.To4())
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	tv := syscall.NsecToTimeval(int64(timeout))
	for _, err := range []error{
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &tv),
		syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1),
		syscall.Connect(fd, sa),
	} {
		if err != nil {
			syscall.Close(fd)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
	}
	return &sock{fd}, nil
}

func (s *sock) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(s.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return 0, errors.New("read timed out")
		case err != nil:
			return 0, err
		case n == 0 && len(p) > 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (s *sock) Write(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		n, err := syscall.Write(s.fd, p[done:])
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return done, errors.New("write timed out")
		case err != nil:
			return done, err
		}
		done += n
	}
	return done, nil
}

func (s *sock) Close() error { return syscall.Close(s.fd) }

func newConn(addr string) *conn { return &conn{addr: addr} }

// request is one HTTP request: GET when body is nil, POST otherwise.
type request struct {
	path string
	body []byte
}

const requestTimeout = 30 * time.Second

// do sends req and reads the whole reply body into out. Any error closes
// the connection; the next call dials again.
func (k *conn) do(req request, out *bytes.Buffer) (int, error) {
	status, err := k.roundTrip(req, out)
	if err != nil && k.c != nil {
		k.close()
	}
	return status, err
}

func (k *conn) roundTrip(req request, out *bytes.Buffer) (int, error) {
	if k.c == nil {
		c, err := dial(k.addr, requestTimeout)
		if err != nil {
			return 0, err
		}
		k.c, k.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	b := k.wbuf[:0]
	if req.body == nil {
		b = append(b, "GET "...)
	} else {
		b = append(b, "POST "...)
	}
	b = append(b, req.path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, k.addr...)
	if req.body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(req.body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, req.body...)
	k.wbuf = b
	if _, err := k.c.Write(b); err != nil {
		return 0, err
	}
	return readResponse(k.br, out)
}

func (k *conn) close() {
	k.c.Close()
	k.c, k.br = nil, nil
}

// readResponse parses one HTTP/1.1 response with a Content-Length or a
// chunked body; ftserve sends nothing else.
func readResponse(br *bufio.Reader, out *bytes.Buffer) (int, error) {
	line, err := readLine(br)
	if err != nil {
		return 0, err
	}
	proto, rest, _ := strings.Cut(line, " ")
	code, _, _ := strings.Cut(rest, " ")
	status, err := strconv.Atoi(code)
	if !strings.HasPrefix(proto, "HTTP/1.") || err != nil {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := readLine(br)
		if err != nil {
			return status, err
		}
		if h == "" {
			break
		}
		name, value, _ := strings.Cut(h, ":")
		value = strings.TrimSpace(value)
		switch strings.ToLower(name) {
		case "content-length":
			if length, err = strconv.Atoi(value); err != nil || length < 0 {
				return status, fmt.Errorf("bad Content-Length %q", value)
			}
		case "transfer-encoding":
			chunked = strings.EqualFold(value, "chunked")
		}
	}
	out.Reset()
	switch {
	case chunked:
		for {
			h, err := readLine(br)
			if err != nil {
				return status, err
			}
			size, err := strconv.ParseInt(strings.TrimSpace(strings.SplitN(h, ";", 2)[0]), 16, 64)
			if err != nil || size < 0 {
				return status, fmt.Errorf("bad chunk size %q", h)
			}
			if size == 0 {
				_, err := readLine(br) // no trailers from ftserve
				return status, err
			}
			if _, err := io.CopyN(out, br, size); err != nil {
				return status, err
			}
			if _, err := readLine(br); err != nil {
				return status, err
			}
		}
	case length >= 0:
		_, err := io.CopyN(out, br, int64(length))
		return status, err
	default:
		return status, errors.New("response has neither Content-Length nor chunked encoding")
	}
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSuffix(strings.TrimSuffix(line, "\n"), "\r"), nil
}
