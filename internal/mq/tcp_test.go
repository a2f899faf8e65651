package mq

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

func startServer(t *testing.T) (*Server, *Broker) {
	t.Helper()
	b := NewBroker()
	s, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, b
}

func TestTCPPublishSubscribe(t *testing.T) {
	s, _ := startServer(t)

	ctl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.DeclareQueue("stampede", true); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Bind("stampede", "stampede.#"); err != nil {
		t.Fatal(err)
	}

	sub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	msgs, err := sub.Subscribe("stampede")
	if err != nil {
		t.Fatal(err)
	}

	body := "ts=2012-03-13T12:35:38.000000Z event=stampede.xwf.start restart_count=0"
	if err := ctl.Publish("stampede.xwf.start", []byte(body)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-msgs:
		if m.Key != "stampede.xwf.start" || string(m.Body) != body {
			t.Fatalf("got %q %q", m.Key, m.Body)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery within 2s")
	}
}

func TestTCPManyMessagesOrdered(t *testing.T) {
	s, _ := startServer(t)
	ctl, _ := Dial(s.Addr())
	defer ctl.Close()
	if err := ctl.DeclareQueue("q", false); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Bind("q", "#"); err != nil {
		t.Fatal(err)
	}
	sub, _ := Dial(s.Addr())
	defer sub.Close()
	msgs, err := sub.Subscribe("q")
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			if err := ctl.Publish("k.x", []byte(fmt.Sprintf("msg-%04d", i))); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		select {
		case m := <-msgs:
			want := fmt.Sprintf("msg-%04d", i)
			if string(m.Body) != want {
				t.Fatalf("message %d = %q, want %q (ordering broken)", i, m.Body, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at message %d", i)
		}
	}
}

func TestTCPErrors(t *testing.T) {
	s, _ := startServer(t)
	c, _ := Dial(s.Addr())
	defer c.Close()
	if err := c.Bind("ghost", "#"); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("bind ghost err = %v", err)
	}
	if _, err := c.Subscribe("ghost"); err == nil {
		t.Error("subscribe to unknown queue succeeded")
	}
}

func TestTCPPublishAsync(t *testing.T) {
	s, _ := startServer(t)
	ctl, _ := Dial(s.Addr())
	defer ctl.Close()
	if err := ctl.DeclareQueue("q", false); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Bind("q", "#"); err != nil {
		t.Fatal(err)
	}
	sub, _ := Dial(s.Addr())
	defer sub.Close()
	msgs, err := sub.Subscribe("q")
	if err != nil {
		t.Fatal(err)
	}
	// Async bursts interleaved with synchronous commands on one client:
	// every burst sits in the client's buffer when the sync command is
	// written behind it, so the wire order is the call order, and since
	// PUBA frames draw no reply each sync command reads its own — the
	// Publish an OK, the Bind to an undeclared queue its error.
	const rounds, burst = 20, 50
	for r := 0; r < rounds; r++ {
		for i := 0; i < burst; i++ {
			if err := ctl.PublishAsync("k.async", []byte(fmt.Sprintf("a%02d.%02d", r, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ctl.Publish("k.sync", []byte(fmt.Sprintf("s%02d", r))); err != nil {
			t.Fatalf("round %d: sync publish after async burst: %v", r, err)
		}
		if err := ctl.Bind("ghost", "#"); err == nil || !strings.Contains(err.Error(), "undeclared") {
			t.Fatalf("round %d: bind ghost err = %v (replies mispaired)", r, err)
		}
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i <= burst; i++ {
			want := fmt.Sprintf("a%02d.%02d", r, i)
			if i == burst {
				want = fmt.Sprintf("s%02d", r)
			}
			select {
			case m := <-msgs:
				if string(m.Body) != want {
					t.Fatalf("round %d message %d = %q, want %q", r, i, m.Body, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("timed out at round %d message %d", r, i)
			}
		}
	}
	if err := ctl.PublishAsync("bad key", []byte("x")); err == nil {
		t.Error("async publish with whitespace key accepted")
	}
}

func TestTCPPublishBadKey(t *testing.T) {
	s, _ := startServer(t)
	c, _ := Dial(s.Addr())
	defer c.Close()
	if err := c.Publish("has space", []byte("x")); err == nil {
		t.Error("whitespace routing key accepted")
	}
}

func TestTCPServerCloseUnblocksSubscriber(t *testing.T) {
	b := NewBroker()
	s, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := Dial(s.Addr())
	defer c.Close()
	if err := c.DeclareQueue("q", true); err != nil {
		t.Fatal(err)
	}
	sub, _ := Dial(s.Addr())
	defer sub.Close()
	msgs, err := sub.Subscribe("q")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Logf("server close: %v", err)
	}
	select {
	case _, ok := <-msgs:
		if ok {
			t.Fatal("unexpected message")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscription channel not closed on server shutdown")
	}
}

func TestTCPBinaryBody(t *testing.T) {
	s, _ := startServer(t)
	ctl, _ := Dial(s.Addr())
	defer ctl.Close()
	_ = ctl.DeclareQueue("q", false)
	_ = ctl.Bind("q", "#")
	sub, _ := Dial(s.Addr())
	defer sub.Close()
	msgs, _ := sub.Subscribe("q")
	body := make([]byte, 256)
	for i := range body {
		body[i] = byte(i) // includes \n, \0, etc.
	}
	if err := ctl.Publish("bin", body); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-msgs:
		if string(m.Body) != string(body) {
			t.Fatal("binary body corrupted in transit")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

// Publish sends one message.
func (c *Client) Publish(key string, body []byte) error {
	if err := checkFrame(key, body); err != nil {
		return err
	}
	return c.roundTrip(func() error { return c.w.writeFrame("PUB", key, body) })
}

// flushWatch is a client's end of a connection that signals each write the
// client makes on it, so a test can wait for the background flush.
type flushWatch struct {
	net.Conn
	wrote chan struct{}
}

func (c *flushWatch) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	select {
	case c.wrote <- struct{}{}:
	default:
	}
	return n, err
}

// TestTCPFailedBackgroundFlushIsReported: a flush the client's flusher
// makes after the server side went away fails, and the failure is not lost
// with the flusher's goroutine: the next PublishAsync and Close return it.
func TestTCPFailedBackgroundFlushIsReported(t *testing.T) {
	server, client := net.Pipe()
	server.Close() // the server side is gone: every write fails
	conn := &flushWatch{Conn: client, wrote: make(chan struct{}, 1)}
	c := newClient(conn)
	if err := c.PublishAsync("stampede.xwf.start", []byte("first")); err != nil {
		t.Fatalf("PublishAsync buffers and reports nothing yet, got %v", err)
	}
	select {
	case <-conn.wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("the flusher never wrote the buffered frame")
	}
	// The flusher holds the client's lock across its write; taking it
	// here waits for that flush to have returned.
	c.mu.Lock()
	c.mu.Unlock()
	if err := c.PublishAsync("stampede.xwf.start", []byte("second")); err == nil {
		t.Error("PublishAsync after a failed background flush returned nil")
	}
	if err := c.Close(); err == nil {
		t.Error("Close after a failed background flush returned nil")
	}
}
