package triana

import (
	"sync"

	"repro/internal/bp"
	"repro/internal/mq"
	"repro/internal/schema"
	"repro/internal/trace"
)

// WriterAppender writes events as BP lines through a bp.Writer.
type WriterAppender struct {
	W *bp.Writer
}

// Append implements bp.Appender.
func (a *WriterAppender) Append(ev *bp.Event) error { return a.W.Write(ev) }

// ClientAppender publishes events over a TCP connection to a broker
// server: the full remote-AMQP deployment. It uses the fire-and-forget
// path so logging never blocks the engine on a bus round trip. The line is
// encoded into pooled scratch: PublishAsync copies it into the client's
// buffered frame writer, so an event costs no allocation.
type ClientAppender struct {
	Client *mq.Client
}

// Append implements bp.Appender.
func (a *ClientAppender) Append(ev *bp.Event) error {
	return ev.WithLine(func(line []byte) error {
		trace.Emit(line, ev.TS, ev.Get(schema.AttrXwfID))
		return a.Client.PublishAsync(ev.Type, line)
	})
}

// MultiAppender fans one event out to several appenders (the DART run
// kept the plain-text log AND fed the queue). The first error wins but
// every appender still sees the event.
type MultiAppender []bp.Appender

// Append implements bp.Appender.
func (m MultiAppender) Append(ev *bp.Event) error {
	var first error
	for _, a := range m {
		if err := a.Append(ev); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CollectAppender buffers events in memory; tests and the analyzer's
// in-process pipelines use it.
type CollectAppender struct {
	mu     sync.Mutex
	events []*bp.Event
}

// Append implements bp.Appender.
func (c *CollectAppender) Append(ev *bp.Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev.Clone())
	return nil
}

// Events returns a snapshot of everything appended so far.
func (c *CollectAppender) Events() []*bp.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*bp.Event(nil), c.events...)
}
