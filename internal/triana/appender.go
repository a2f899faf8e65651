package triana

import (
	"fmt"
	"os"
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

// OpenAppenders builds the appender an engine binary logs through: BP
// lines to a file at logPath, frames to the broker at brokerAddr, either
// or both, or BP lines to standard output when neither is given. The
// returned close flushes and closes each of them and reports the first
// error of any Append, flush or close; call it before every exit, or the
// buffered tail of the run is lost.
func OpenAppenders(logPath, brokerAddr string) (bp.Appender, func() error, error) {
	s := &sinks{}
	if logPath != "" {
		f, err := os.Create(logPath)
		if err != nil {
			return nil, nil, err
		}
		w := bp.NewWriter(f)
		s.multi = append(s.multi, &WriterAppender{W: w})
		s.closers = append(s.closers, w.Flush, f.Close)
	}
	if brokerAddr != "" {
		client, err := mq.Dial(brokerAddr)
		if err != nil {
			s.close()
			return nil, nil, err
		}
		s.multi = append(s.multi, &ClientAppender{Client: client})
		s.closers = append(s.closers, client.Close)
	}
	if len(s.multi) == 0 {
		w := bp.NewWriter(os.Stdout)
		s.multi = append(s.multi, &WriterAppender{W: w})
		s.closers = append(s.closers, w.Flush)
	}
	return s, s.close, nil
}

// sinks is OpenAppenders' appender. It remembers the first Append error,
// so close reports a run whose events did not all arrive even when every
// flush and close succeeds.
type sinks struct {
	multi   MultiAppender
	closers []func() error

	mu  sync.Mutex
	err error
}

func (s *sinks) Append(ev *bp.Event) error {
	err := s.multi.Append(ev)
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = fmt.Errorf("append: %w", err)
		}
		s.mu.Unlock()
	}
	return err
}

func (s *sinks) close() error {
	s.mu.Lock()
	first := s.err
	s.mu.Unlock()
	for _, c := range s.closers {
		if err := c(); err != nil && first == nil {
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
