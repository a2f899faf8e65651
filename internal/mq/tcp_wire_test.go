package mq

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// bound declares queue q catching every key on s and returns a client to
// publish on plus a subscribed delivery stream.
func bound(t *testing.T, s *Server) (pub *Client, msgs <-chan Message) {
	t.Helper()
	sub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sub.Close() })
	if err := sub.DeclareQueue("q", true); err != nil {
		t.Fatal(err)
	}
	if err := sub.Bind("q", "#"); err != nil {
		t.Fatal(err)
	}
	if msgs, err = sub.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	if pub, err = Dial(s.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })
	return pub, msgs
}

// TestPublishAsyncLoneMessageIsDelivered is the liveness half of the
// flush rule: one PublishAsync and then no further call on that client —
// a closed-loop publisher asleep on a full window — still reaches the
// subscriber, because the flusher, not the next call, sends it.
func TestPublishAsyncLoneMessageIsDelivered(t *testing.T) {
	s, _ := startServer(t)
	pub, msgs := bound(t, s)
	if err := pub.PublishAsync("k", []byte("lone")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-msgs:
		if m.Key != "k" || string(m.Body) != "lone" {
			t.Fatalf("got %q %q", m.Key, m.Body)
		}
	case <-time.After(time.Second):
		t.Fatal("a lone PublishAsync was not delivered within 1s")
	}
}

// TestPublishAsyncThenCloseLosesNothing: engines publish and then Close.
// Whatever the flusher had not yet sent goes out in Close.
func TestPublishAsyncThenCloseLosesNothing(t *testing.T) {
	s, b := startServer(t)
	pub, msgs := bound(t, s)
	const writers, each = 4, 10000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := pub.PublishAsync("k."+strconv.Itoa(g), []byte(strconv.Itoa(i))); err != nil {
					t.Errorf("writer %d message %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := pub.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var next [writers]int
	for n := 0; n < writers*each; n++ {
		select {
		case m, ok := <-msgs:
			if !ok {
				t.Fatalf("stream closed after %d messages", n)
			}
			g, _ := strconv.Atoi(strings.TrimPrefix(m.Key, "k."))
			if got, _ := strconv.Atoi(string(m.Body)); got != next[g] {
				t.Fatalf("writer %d: got message %d, want %d (order broken or message lost)", g, got, next[g])
			}
			next[g]++
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d of %d messages", n, writers*each)
		}
	}
	if st := b.Stats(); st.Published != writers*each || st.Dropped != 0 {
		t.Fatalf("broker saw %d published, %d dropped; want %d and 0", st.Published, st.Dropped, writers*each)
	}
	if err := pub.PublishAsync("k.0", []byte("late")); err == nil {
		t.Error("PublishAsync on a closed client reported no error")
	}
}

// TestClientCloseTwiceLeavesNoGoroutine: Close waits for the flusher and
// the subscription reader, so once every client is closed the process is
// back to the goroutines it had before they were dialled.
func TestClientCloseTwiceLeavesNoGoroutine(t *testing.T) {
	s, b := startServer(t)
	if _, err := b.DeclareQueue("q", QueueOpts{Durable: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("q", "#"); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	pub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishAsync("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Client{pub, sub} {
		first := c.Close()
		if first != nil {
			t.Errorf("close: %v", first)
		}
		if again := c.Close(); again != first {
			t.Errorf("second close = %v, first = %v", again, first)
		}
	}
	// The clients' own goroutines are gone when Close returns. The
	// server's two handlers follow when they see the connections drop —
	// the delivery handler only by failing a write, so keep it writing.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the clients, %d after closing them", before, runtime.NumGoroutine())
		}
		b.Publish("k", []byte("y"))
		time.Sleep(time.Millisecond)
	}
}

// TestPublishAsyncSurfacesServerClose: the flusher's failed write stays
// in the buffered writer, so a publisher that never calls anything but
// PublishAsync still learns the bus is gone.
func TestPublishAsyncSurfacesServerClose(t *testing.T) {
	s, err := NewServer(NewBroker(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pub, _ := bound(t, s)
	if err := pub.PublishAsync("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	body := make([]byte, 1024)
	for i := 0; i < 1_000_000; i++ {
		if err := pub.PublishAsync("k", body); err != nil {
			return
		}
	}
	t.Fatal("1,000,000 PublishAsync calls after Server.Close and no error")
}

// countingWriter counts Write calls and reports the running byte total
// after each one.
type countingWriter struct {
	mu     sync.Mutex
	writes int
	bytes  int
	wrote  chan int // cumulative bytes, one send per Write
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	w.bytes += len(p)
	total := w.bytes
	w.mu.Unlock()
	w.wrote <- total
	return len(p), nil
}

func (w *countingWriter) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes
}

// TestDeliverCoalesces drives Server.deliver directly. A backlog must
// leave in buffer-sized writes; messages that arrive one at a time must
// each be on the wire before the next exists.
func TestDeliverCoalesces(t *testing.T) {
	const n = 10000
	body := []byte("0123456789")
	frame := len(appendHeader(nil, "MSG", "k", len(body))) + len(body) + 1

	run := func(prefill int) (*Broker, *countingWriter, chan struct{}) {
		b := NewBroker()
		q, err := b.DeclareQueue("q", QueueOpts{Durable: true, Capacity: n})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Bind("q", "#"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < prefill; i++ {
			b.Publish("k", body)
		}
		// Every write fits: a Write never blocks deliver on this test.
		cw := &countingWriter{wrote: make(chan int, n)}
		s := &Server{broker: b, done: make(chan struct{})}
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			s.deliver(newFrameWriter(cw), q)
		}()
		return b, cw, returned
	}
	waitBytes := func(cw *countingWriter, want int) {
		t.Helper()
		for {
			select {
			case total := <-cw.wrote:
				if total == want {
					return
				}
				if total > want {
					t.Fatalf("%d bytes written, want %d", total, want)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("timed out waiting for %d bytes on the wire", want)
			}
		}
	}

	b, cw, returned := run(n)
	waitBytes(cw, n*frame)
	if got := cw.count(); got > n/100 {
		t.Errorf("a backlog of %d messages took %d writes, want at most %d", n, got, n/100)
	}
	b.DeleteQueue("q")
	<-returned

	b, cw, returned = run(0)
	for i := 1; i <= 200; i++ {
		b.Publish("k", body)
		waitBytes(cw, i*frame)
	}
	b.DeleteQueue("q")
	<-returned
}

// TestBadTrailerClosesTheStream: a frame whose declared length is short
// of its body must not resynchronise by swallowing bytes up to the next
// newline. Both decoders require '\n' right after the body.
func TestBadTrailerClosesTheStream(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		s, b := startServer(t)
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Declared 3, sent 6: the old decoder published "abc" and skipped "def".
		if _, err := io.WriteString(conn, "PUB k 3\nabcdef\nPUB k 1\nx\n"); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		replies, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("server did not close the connection: %v", err)
		}
		if string(replies) != "ERR bad frame\n" {
			t.Fatalf("replies = %q, want one ERR bad frame", replies)
		}
		if got := b.Stats().Published; got != 0 {
			t.Fatalf("%d messages published from a malformed stream", got)
		}
	})
	t.Run("subscriber", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			bufio.NewReader(conn).ReadString('\n') // SUB q
			io.WriteString(conn, "OK\nMSG k 3\nabc\nMSG k 3\nabcdef\nMSG k 1\nx\n")
			io.Copy(io.Discard, conn) // hold the connection until the client leaves
		}()
		c, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		msgs, err := c.Subscribe("q")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for deadline := time.After(2 * time.Second); ; {
			select {
			case m, ok := <-msgs:
				if ok {
					got = append(got, string(m.Body))
					continue
				}
			case <-deadline:
				t.Fatal("subscription not closed after a malformed frame")
			}
			break
		}
		if len(got) != 1 || got[0] != "abc" {
			t.Fatalf("delivered %q, want only the well-formed first frame", got)
		}
	})
}

// failingListener fails its first calls at once, hands out one
// connection, and fails from then on, recording when each call came.
type failingListener struct {
	mu    sync.Mutex
	calls []time.Time
	okAt  int // index of the call that succeeds
	conn  net.Conn
}

func (l *failingListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, time.Now())
	if len(l.calls)-1 == l.okAt {
		return l.conn, nil
	}
	return nil, errors.New("accept: too many open files")
}
func (l *failingListener) Close() error   { return nil }
func (l *failingListener) Addr() net.Addr { return nil }

// TestAcceptLoopBacksOff: a persistent Accept error must cost a handful
// of wake-ups, not a spinning core; success resets the delay; shutdown
// does not wait a backoff out.
func TestAcceptLoopBacksOff(t *testing.T) {
	ours, theirs := net.Pipe()
	defer theirs.Close()
	// Calls 0-5 fail (waits of 5, 10, 20, 40, 80, 160 ms), call 6 succeeds.
	l := &failingListener{okAt: 6, conn: ours}
	s := &Server{broker: NewBroker(), ln: l, conns: map[net.Conn]struct{}{}, done: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()

	calls := func() []time.Time {
		l.mu.Lock()
		defer l.mu.Unlock()
		return append([]time.Time(nil), l.calls...)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(calls()) < 9 {
		if time.Now().After(deadline) {
			t.Fatalf("accept loop made %d calls in 5s", len(calls()))
		}
		time.Sleep(time.Millisecond)
	}
	at := calls()
	if took := at[6].Sub(at[0]); took < 315*time.Millisecond {
		t.Errorf("six consecutive failures were retried within %v, want >= 315ms of backoff", took)
	}
	// Call 7 fails right after the success; the wait before call 8 is
	// back to 5 ms rather than the 320 ms the series had reached.
	if gap := at[8].Sub(at[7]); gap > 160*time.Millisecond {
		t.Errorf("retry after a successful accept waited %v: backoff not reset", gap)
	}

	stopped := make(chan struct{})
	go func() {
		close(s.done)
		theirs.Close()
		s.wg.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("accept loop did not exit promptly on shutdown")
	}
}

// TestTCPHopAllocs: a loopback hop — PublishAsync, Server.handle, the
// broker, Server.deliver, the Subscribe reader — allocates the two bodies
// (one per decoder) and nothing else per message.
func TestTCPHopAllocs(t *testing.T) {
	s, _ := startServer(t)
	pub, msgs := bound(t, s)
	body := []byte("ts=2012-03-13T12:35:38.000000Z event=stampede.job_inst.main.start xwf.id=ea17e8ac-02ac-4909-b5e3-16e367392556 job_inst.id=7 job.id=j7")
	hop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := pub.PublishAsync("stampede.job_inst.main.start", body); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			<-msgs
		}
	}
	hop(1000) // interns the key, grows every buffer
	const n = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hop(n)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.2f mallocs per message", per)
	if per > 3 {
		t.Fatalf("%.2f mallocs per message over a loopback hop, want <= 3", per)
	}
}

// FuzzMQWire feeds arbitrary bytes to the header decoder, to a
// Server.handle and to a Subscribe reader. None may panic or hang, no
// delivered body may exceed the frame limit, and every PUB/PUBA/MSG
// header the decoder accepts must be exactly what the encoder writes.
func FuzzMQWire(f *testing.F) {
	for _, seed := range []string{
		"PUB k 3\nabc\n",
		"PUBA stampede.xwf.start 5\nhello\n",
		"QDECL q 1\n",
		"BIND q stampede.#\n",
		"QDECL q 1\nBIND q #\nPUB k 1\nx\nSUB q\n",
		"MSG k 3\nabc\n",
		"PUB k 2097152\n",
		"PUB k -1\n",
		"MSG k 18446744073709551616\nx\n",
		"PUB a\tb 1\nx\n",
		"PUB  1\nx\n",
		"PUB k 3\nabcdef\n",
		"PUB k 03\nabc\n",
		"\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder alone, line by line.
		for rest := data; ; {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			line := rest[:i+1]
			rest = rest[i+1:]
			var w [3][]byte
			if splitCommand(line[:i], &w) != 3 {
				continue
			}
			cmd := string(w[0])
			if cmd != "PUB" && cmd != "PUBA" && cmd != "MSG" {
				continue
			}
			size, ok := parseLen(w[2])
			if !ok {
				continue
			}
			if size > maxBody {
				t.Fatalf("accepted body length %d", size)
			}
			if checkFrame(string(w[1]), nil) != nil {
				t.Fatalf("decoder accepted key %q that the client refuses", w[1])
			}
			if enc := appendHeader(nil, cmd, string(w[1]), size); !bytes.Equal(enc, line) {
				t.Fatalf("header %q re-encodes as %q", line, enc)
			}
		}

		// feed writes data to one end of a pipe while discarding whatever
		// comes back, and closes it when the peer is done.
		feed := func(conn net.Conn, prefix string) {
			go io.Copy(io.Discard, conn)
			io.WriteString(conn, prefix)
			conn.Write(data)
			conn.Close()
		}
		within := func(what string, done <-chan struct{}) {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s hung", what)
			}
		}

		// Server.handle. The server is already shut down, so a SUB's
		// delivery loop returns instead of waiting for messages.
		s := &Server{broker: NewBroker(), done: make(chan struct{})}
		close(s.done)
		ours, theirs := net.Pipe()
		handled := make(chan struct{})
		go func() {
			defer close(handled)
			s.handle(ours)
			ours.Close()
		}()
		feed(theirs, "")
		within("Server.handle", handled)

		// The Subscribe reader, behind a peer that grants the SUB.
		ours, theirs = net.Pipe()
		go func() {
			bufio.NewReader(theirs).ReadString('\n')
			feed(theirs, "OK\n")
		}()
		c := newClient(ours)
		msgs, err := c.Subscribe("q")
		if err != nil {
			t.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for m := range msgs {
				if len(m.Body) > maxBody || checkFrame(m.Key, nil) != nil {
					t.Errorf("delivered key %q with a %d-byte body", m.Key, len(m.Body))
				}
			}
		}()
		within("Subscribe reader", drained)
		c.Close()
	})
}
