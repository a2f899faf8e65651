package mq

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
)

// countingConn counts the Write calls — syscalls, on a TCP connection —
// a peer makes.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener hands the server connections that count its writes.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.writes}, nil
}

var benchBody = []byte("ts=2012-03-13T12:35:38.000000Z event=stampede.job_inst.main.start xwf.id=ea17e8ac-02ac-4909-b5e3-16e367392556 job_inst.id=7 job.id=j7")

const benchKey = "stampede.job_inst.main.start"

// BenchmarkMQTCPPublish is the producer's half of a hop: PublishAsync over
// loopback into a server that decodes and routes to no queue, Close
// included so every frame has left. writes/msg counts the client's write
// syscalls.
func BenchmarkMQTCPPublish(b *testing.B) {
	broker := NewBroker()
	s, err := NewServer(broker, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	var writes atomic.Int64
	c := newClient(countingConn{conn, &writes})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.PublishAsync(benchKey, benchBody); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	for broker.Stats().Published < uint64(b.N) {
		runtime.Gosched() // the server's decode belongs to the hop
	}
	b.StopTimer()
	b.ReportMetric(float64(writes.Load())/float64(b.N), "writes/msg")
}

// BenchmarkMQTCPDeliver is the consumer's half: messages routed in
// process, streamed by Server.deliver over loopback and decoded by the
// Subscribe reader. writes/msg counts the server's write syscalls.
func BenchmarkMQTCPDeliver(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var writes atomic.Int64
	broker := NewBroker()
	s := &Server{broker: broker, ln: countingListener{ln, &writes}, conns: map[net.Conn]struct{}{}, done: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	defer s.Close()
	sub, err := Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	if err := sub.DeclareQueue("q", true); err != nil {
		b.Fatal(err)
	}
	if err := sub.Bind("q", "#"); err != nil {
		b.Fatal(err)
	}
	msgs, err := sub.Subscribe("q")
	if err != nil {
		b.Fatal(err)
	}
	// The publisher stays at most window messages ahead of the consumer,
	// inside the queue's capacity, so nothing is dropped at any b.N.
	const window = DefaultQueueCapacity / 2
	var received atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			<-msgs
			received.Add(1)
		}
	}()
	writes.Store(0) // the control replies above
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for int64(i)-received.Load() >= window {
			runtime.Gosched()
		}
		broker.Publish(benchKey, benchBody)
	}
	<-done
	b.StopTimer()
	b.ReportMetric(float64(writes.Load())/float64(b.N), "writes/msg")
}
