package mq

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The wire protocol is line-oriented with length-prefixed bodies, chosen
// so a BP event (which may contain quoted newline escapes but never raw
// newlines) survives unmodified:
//
//	client -> server:
//	  PUB <routing-key> <body-len>\n<body-bytes>\n
//	  PUBA <routing-key> <body-len>\n<body-bytes>\n   (no reply)
//	  QDECL <queue> <durable 0|1>\n
//	  BIND <queue> <pattern>\n
//	  SUB <queue>\n                 (switches the connection to delivery mode)
//	server -> client:
//	  OK\n | ERR <message>\n
//	  MSG <routing-key> <body-len>\n<body-bytes>\n   (delivery mode)
//
// A command line is one to three words separated by exactly one space, a
// word being one or more bytes other than ASCII whitespace; <body-len> is
// plain decimal without sign or leading zeros, at most maxBody. One
// decoder (readCommand, parseLen, readFrame) and one encoder (appendHeader)
// serve both directions, so every header a peer accepts is the header the
// other side's encoder would have written.
//
// Trailer rule: the byte after a body must be '\n'. A frame whose declared
// length is wrong would otherwise resynchronise by luck; instead the server
// replies "ERR bad frame" and closes the connection, and a subscriber
// closes its message channel.
//
// Flush rule: a writer flushes when it has nothing more to write; control
// replies flush at once. Server.deliver keeps writing while its queue has
// a message ready and flushes only when the next receive would block.
// Client.PublishAsync appends to the connection's buffer and wakes the
// client's flusher goroutine, which flushes whatever has accumulated by
// the time it runs: a burst leaves in few large writes, a lone message
// within one goroutine hand-off, and nothing waits on a clock. The flusher
// belongs to the Client: Dial starts it, Close stops it, flushes what is
// still pending and waits for it.
//
// One connection is either a producer/control connection or, after SUB, a
// delivery stream; that mirrors AMQP channel usage closely enough for this
// system while keeping the implementation dependency-free.

const (
	// maxBody bounds a frame's declared body length, and with it what one
	// header can make a peer allocate.
	maxBody = 1 << 20
	// connBuf sizes the bufio reader and writer on both ends of a
	// connection: the most a coalesced flush carries in one write, and the
	// longest command line a peer accepts.
	connBuf = 64 << 10
	// maxKeys bounds a connection's routing-key intern table; keys past
	// it are allocated per message.
	maxKeys = 1024
)

var (
	errBadLength = errors.New("mq: bad body length")
	errBadFrame  = errors.New("mq: frame body is not followed by a newline")
	errClosed    = errors.New("mq: client is closed")
)

func isSpace(c byte) bool { return c == ' ' || ('\t' <= c && c <= '\r') }

// splitCommand splits a command line (without its newline) into words, in
// place: f's entries alias line. It returns the word count, or 0 when the
// line is not one to three whitespace-free words joined by single spaces.
func splitCommand(line []byte, f *[3][]byte) int {
	n, start := 0, 0
	for i := 0; i <= len(line); i++ {
		if i < len(line) && line[i] != ' ' {
			if isSpace(line[i]) {
				return 0
			}
			continue
		}
		if i == start || n == len(f) {
			return 0
		}
		f[n] = line[start:i]
		n++
		start = i + 1
	}
	return n
}

// readCommand reads one command line and splits it with splitCommand. The
// words alias r's buffer and are valid until the next read from r. A line
// longer than that buffer is an error.
func readCommand(r *bufio.Reader, f *[3][]byte) (int, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	return splitCommand(line[:len(line)-1], f), nil
}

// parseLen decodes a frame's <body-len> word.
func parseLen(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 7 || (b[0] == '0' && len(b) > 1) {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, n <= maxBody
}

// readFrame reads the rest of a PUB, PUBA or MSG frame whose header words
// are in f: the body together with the newline that must end the frame,
// in one read. Reading invalidates f.
func readFrame(r *bufio.Reader, keys keyTable, f *[3][]byte) (key string, body []byte, err error) {
	n, ok := parseLen(f[2])
	if !ok {
		return "", nil, errBadLength
	}
	key = keys.intern(f[1])
	buf := make([]byte, n+1)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", nil, err
	}
	if buf[n] != '\n' {
		return "", nil, errBadFrame
	}
	return key, buf[:n:n], nil
}

// appendHeader appends the header line of a PUB, PUBA or MSG frame.
func appendHeader(b []byte, cmd, key string, n int) []byte {
	b = append(b, cmd...)
	b = append(b, ' ')
	b = append(b, key...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, '\n')
}

// frameWriter buffers outgoing frames for one connection. Its header
// scratch keeps encoding off the heap for any key that fits.
type frameWriter struct {
	*bufio.Writer
	hdr [128]byte
}

func newFrameWriter(conn io.Writer) *frameWriter {
	return &frameWriter{Writer: bufio.NewWriterSize(conn, connBuf)}
}

// writeFrame buffers one frame without flushing. The bufio.Writer's error
// is sticky, so the last write reports any earlier failure.
func (w *frameWriter) writeFrame(cmd, key string, body []byte) error {
	w.Write(appendHeader(w.hdr[:0], cmd, key, len(body)))
	w.Write(body)
	return w.WriteByte('\n')
}

// keyTable interns the routing keys seen on one connection: producers use
// a handful of event types, so after the first sighting a key costs a map
// lookup instead of an allocation per message.
type keyTable map[string]string

func (t keyTable) intern(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(t) < maxKeys {
		t[s] = s
	}
	return s
}

// Server exposes a Broker over TCP.
type Server struct {
	broker *Broker
	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewServer starts serving broker on addr ("host:port", ":0" for an
// ephemeral port). Use Addr to discover the bound address.
func NewServer(broker *Broker, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mq: listen %s: %w", addr, err)
	}
	s := &Server{broker: broker, ln: ln, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every live connection and waits for the
// handlers to exit.
func (s *Server) Close() error {
	close(s.done)
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// EMFILE, ECONNABORTED and the like clear up on their own;
			// retrying at once would spin a core until they do.
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			select {
			case <-s.done:
				return
			case <-time.After(backoff):
				continue
			}
		}
		backoff = 0
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReaderSize(conn, connBuf)
	w := newFrameWriter(conn)
	keys := keyTable{}
	reply := func(msg string) bool {
		w.WriteString(msg)
		return w.Flush() == nil
	}
	for {
		var f [3][]byte
		n, err := readCommand(r, &f)
		if err != nil {
			if errors.Is(err, bufio.ErrBufferFull) {
				reply("ERR command line too long\n")
			}
			return
		}
		msg := "OK\n"
		switch {
		case n == 0:
			msg = "ERR malformed command\n"
		case string(f[0]) == "PUB" || string(f[0]) == "PUBA":
			// PUBA is the fire-and-forget variant: no acknowledgement, so
			// producers never block on the bus — the paper's §IV-C
			// requirement for the logging path.
			if n != 3 {
				msg = "ERR PUB wants key and length\n"
				break
			}
			ack := len(f[0]) == len("PUB")
			key, body, err := readFrame(r, keys, &f)
			if errors.Is(err, errBadLength) {
				msg = "ERR bad body length\n"
				break
			}
			if err != nil {
				if errors.Is(err, errBadFrame) {
					reply("ERR bad frame\n")
				}
				return
			}
			s.broker.Publish(key, body)
			if !ack {
				continue
			}
		case string(f[0]) == "QDECL":
			if n != 3 {
				msg = "ERR QDECL wants queue and durable flag\n"
			} else if _, err := s.broker.DeclareQueue(string(f[1]), QueueOpts{Durable: string(f[2]) == "1"}); err != nil {
				msg = fmt.Sprintf("ERR %s\n", err)
			}
		case string(f[0]) == "BIND":
			if n != 3 {
				msg = "ERR BIND wants queue and pattern\n"
			} else if err := s.broker.Bind(string(f[1]), string(f[2])); err != nil {
				msg = fmt.Sprintf("ERR %s\n", err)
			}
		case string(f[0]) == "SUB":
			if n != 2 {
				msg = "ERR SUB wants a queue\n"
				break
			}
			s.broker.mu.RLock()
			q, ok := s.broker.queues[string(f[1])]
			s.broker.mu.RUnlock()
			if !ok {
				msg = fmt.Sprintf("ERR unknown queue %q\n", f[1])
				break
			}
			if reply(msg) {
				s.deliver(w, q)
			}
			return
		default:
			msg = fmt.Sprintf("ERR unknown command %q\n", f[0])
		}
		if !reply(msg) {
			return
		}
	}
}

// deliver streams a queue's messages until the connection breaks, the
// queue is deleted or the server shuts down. It writes for as long as the
// queue has a message ready and flushes when the next receive would block,
// so a backlog leaves in buffer-sized writes and a lone message at once.
func (s *Server) deliver(w *frameWriter, q *Queue) {
	ch := q.Consume()
	defer q.Cancel()
	for {
		var m Message
		var ok bool
		select {
		case <-s.done:
			return
		case m, ok = <-ch:
		}
		for ready := true; ready; {
			if !ok {
				w.Flush() // the queue is gone; what was taken from it still goes out
				return
			}
			if w.writeFrame("MSG", m.Key, m.Body) != nil {
				return
			}
			select {
			case m, ok = <-ch:
			default:
				ready = false
			}
		}
		if w.Flush() != nil {
			return
		}
	}
}

// Client is a TCP connection to a broker Server for publishing and queue
// management. Methods are safe for concurrent use.
type Client struct {
	mu   sync.Mutex // guards w, and r until Subscribe hands it to its reader
	conn net.Conn
	r    *bufio.Reader
	w    *frameWriter

	kick chan struct{} // PublishAsync -> flusher: something is buffered
	stop chan struct{} // closed by Close
	wg   sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// Dial connects to a broker server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mq: dial %s: %w", addr, err)
	}
	return newClient(conn), nil
}

// newClient wraps an established connection and starts its flusher.
func newClient(conn net.Conn) *Client {
	c := &Client{
		conn: conn,
		r:    bufio.NewReaderSize(conn, connBuf),
		w:    newFrameWriter(conn),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	c.wg.Add(1)
	go c.flushLoop()
	return c
}

// flushLoop is the client's flusher: each kick flushes whatever
// PublishAsync calls have buffered by the time it gets the lock. A failed
// flush stays in the bufio.Writer and fails the next write.
func (c *Client) flushLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
			c.mu.Lock()
			c.w.Flush()
			c.mu.Unlock()
		}
	}
}

// Close flushes what PublishAsync has buffered, releases the connection
// and waits for the client's goroutines. It returns the first error of
// the flush and the close; later calls return the same.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		close(c.stop) // under mu: a PublishAsync either is flushed below or sees stop
		c.closeErr = c.w.Flush()
		c.mu.Unlock()
		if err := c.conn.Close(); c.closeErr == nil {
			c.closeErr = err
		}
		c.wg.Wait()
	})
	return c.closeErr
}

func (c *Client) roundTrip(send func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := send(); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return err
	}
	line = strings.TrimSpace(line)
	if line == "OK" {
		return nil
	}
	return errors.New("mq: server: " + strings.TrimPrefix(line, "ERR "))
}

// checkFrame refuses what the server's decoder would refuse, before it is
// on the wire: an unacknowledged PUBA has no reply to carry the error.
func checkFrame(key string, body []byte) error {
	bad := key == ""
	for i := 0; i < len(key); i++ {
		bad = bad || isSpace(key[i])
	}
	if bad {
		return fmt.Errorf("mq: routing key %q is empty or contains whitespace", key)
	}
	if len(body) > maxBody {
		return fmt.Errorf("mq: body of %d bytes exceeds the %d-byte frame limit", len(body), maxBody)
	}
	return nil
}

// PublishAsync sends one message without waiting for acknowledgement:
// the non-blocking producer path workflow engines log through. The frame
// is buffered and the client's flusher sends it; transport errors surface
// on the next call, and Close flushes the tail.
func (c *Client) PublishAsync(key string, body []byte) error {
	if err := checkFrame(key, body); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.stop:
		return errClosed
	default:
	}
	if err := c.w.writeFrame("PUBA", key, body); err != nil {
		return err
	}
	select {
	case c.kick <- struct{}{}:
	default: // a kick is already pending; its flush will carry this frame
	}
	return nil
}

// DeclareQueue creates a queue on the server.
func (c *Client) DeclareQueue(name string, durable bool) error {
	d := "0"
	if durable {
		d = "1"
	}
	return c.roundTrip(func() error {
		_, err := fmt.Fprintf(c.w, "QDECL %s %s\n", name, d)
		return err
	})
}

// Bind binds a queue to a topic pattern on the server.
func (c *Client) Bind(queue, pattern string) error {
	return c.roundTrip(func() error {
		_, err := fmt.Fprintf(c.w, "BIND %s %s\n", queue, pattern)
		return err
	})
}

// Subscribe switches this connection into delivery mode for the named
// queue and returns a channel of messages. The channel closes when the
// connection drops, a malformed frame arrives or the client is closed.
// After Subscribe the client must not be used for other commands.
func (c *Client) Subscribe(queue string) (<-chan Message, error) {
	err := c.roundTrip(func() error {
		_, err := fmt.Fprintf(c.w, "SUB %s\n", queue)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Deep enough that the reader stays ahead of a consumer that takes
	// messages in batches, shallow enough that TCP backpressure (and so
	// the broker's bounded queue) still sees a slow consumer.
	out := make(chan Message, 1024)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer close(out)
		keys := keyTable{}
		for {
			var f [3][]byte
			n, err := readCommand(c.r, &f)
			if err != nil || n != 3 || string(f[0]) != "MSG" {
				return
			}
			key, body, err := readFrame(c.r, keys, &f)
			if err != nil {
				return
			}
			select {
			case out <- Message{Key: key, Body: body}:
			case <-c.stop:
				return
			}
		}
	}()
	return out, nil
}
