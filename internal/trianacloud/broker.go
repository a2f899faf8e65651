package trianacloud

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/bp"
	"repro/internal/schema"
	"repro/internal/triana"
	"repro/internal/wfclock"
)

// Node is one cloud worker: it executes bundles one at a time, with
// MaxConcurrent of each bundle's tasks running simultaneously (the DART
// deployment: 1 core per instance, 4 concurrent Java threads).
type Node struct {
	Hostname string
	Site     string
	Clock    wfclock.Clock
	Appender bp.Appender
}

// BundleResult reports one finished bundle.
type BundleResult struct {
	Bundle    string  `json:"bundle"`
	Node      string  `json:"node"`
	WfUUID    string  `json:"wf_uuid"`
	Succeeded bool    `json:"succeeded"`
	Tasks     int     `json:"tasks"`
	Seconds   float64 `json:"seconds"` // virtual seconds of wall time
	Error     string  `json:"error,omitempty"`
}

// RunBundle executes one bundle synchronously on the node.
func (n *Node) RunBundle(ctx context.Context, b Bundle) BundleResult {
	res := BundleResult{Bundle: b.Name, Node: n.Hostname}
	clk := n.Clock
	if clk == nil {
		clk = wfclock.Real
	}
	var slots chan struct{}
	if b.MaxConcurrent > 0 {
		slots = make(chan struct{}, b.MaxConcurrent)
	}
	g, err := buildGraph(b, clk, slots)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	var log *triana.StampedeLog
	opts := triana.Options{Mode: triana.SingleStep, Clock: clk, Hostname: n.Hostname}
	if n.Appender != nil {
		log = triana.NewStampedeLog(n.Appender)
		log.ParentUUID = b.ParentUUID
		log.RootUUID = b.RootUUID
		log.Hostname = n.Hostname
		if n.Site != "" {
			log.Site = n.Site
		}
		opts.Listeners = []triana.Listener{log}
	}
	start := clk.Now()
	sched := triana.NewScheduler(g, opts)
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			sched.Stop()
		case <-stopWatch:
		}
	}()
	report, err := sched.Run(ctx)
	close(stopWatch)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.WfUUID = report.RunUUID
	res.Tasks = report.Completed
	res.Seconds = clk.Since(start).Seconds()
	res.Succeeded = report.Err == nil
	if report.Err != nil {
		res.Error = report.Err.Error()
	}
	// Tie the child run into the parent workflow's hierarchy.
	if n.Appender != nil && b.ParentUUID != "" && b.ParentJobID != "" {
		ev := bp.New(schema.MapSubwfJob, clk.Now()).
			Set(schema.AttrLevel, bp.LevelInfo).
			Set(schema.AttrXwfID, b.ParentUUID).
			Set(schema.AttrSubwfID, report.RunUUID).
			Set(schema.AttrJobID, b.ParentJobID).
			SetInt(schema.AttrJobInstID, 1)
		_ = n.Appender.Append(ev)
	}
	return res
}

// Broker accepts bundles over HTTP and dispatches them to its node pool:
// each node runs one bundle at a time, pulling the next from the queue
// when free.
type Broker struct {
	nodes []*Node
	queue chan Bundle
	srv   *http.Server
	ln    net.Listener

	mu       sync.Mutex
	results  []BundleResult
	accepted int
	done     chan struct{} // signalled on every completion
	wg       sync.WaitGroup
	cancel   context.CancelFunc
}

// NewBroker starts a broker listening on addr (":0" for ephemeral) with
// the given worker pool.
func NewBroker(addr string, nodes []*Node) (*Broker, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("trianacloud: broker needs at least one node")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := &Broker{
		nodes:  nodes,
		queue:  make(chan Bundle, 1024),
		ln:     ln,
		done:   make(chan struct{}, 4096),
		cancel: cancel,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /bundles", b.handleSubmit)
	mux.HandleFunc("GET /results", b.handleResults)
	mux.HandleFunc("GET /status", b.handleStatus)
	b.srv = &http.Server{Handler: mux}
	go b.srv.Serve(ln)
	for _, n := range nodes {
		b.wg.Add(1)
		go b.worker(ctx, n)
	}
	return b, nil
}

// URL returns the broker's base URL.
func (b *Broker) URL() string { return "http://" + b.ln.Addr().String() }

// Close stops accepting and shuts the workers down.
func (b *Broker) Close() error {
	b.cancel()
	close(b.queue)
	err := b.srv.Close()
	b.wg.Wait()
	return err
}

func (b *Broker) worker(ctx context.Context, n *Node) {
	defer b.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case bundle, ok := <-b.queue:
			if !ok {
				return
			}
			res := n.RunBundle(ctx, bundle)
			b.mu.Lock()
			b.results = append(b.results, res)
			b.mu.Unlock()
			select {
			case b.done <- struct{}{}:
			default:
			}
		}
	}
}

func (b *Broker) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 10<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bundle, err := UnmarshalBundle(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	select {
	case b.queue <- bundle:
	default:
		http.Error(w, "queue full", http.StatusServiceUnavailable)
		return
	}
	b.mu.Lock()
	b.accepted++
	b.mu.Unlock()
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, `{"accepted":%q}`, bundle.Name)
}

func (b *Broker) handleResults(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	out := append([]BundleResult(nil), b.results...)
	b.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

func (b *Broker) handleStatus(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	status := struct {
		Nodes    int `json:"nodes"`
		Accepted int `json:"accepted"`
		Finished int `json:"finished"`
		Queued   int `json:"queued"`
	}{len(b.nodes), b.accepted, len(b.results), len(b.queue)}
	b.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(status)
}

// Results returns a snapshot of finished bundles.
func (b *Broker) Results() []BundleResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]BundleResult(nil), b.results...)
}

// WaitFinished blocks until count bundles have finished or the context
// ends, returning the results so far.
func (b *Broker) WaitFinished(ctx context.Context, count int) ([]BundleResult, error) {
	for {
		b.mu.Lock()
		n := len(b.results)
		b.mu.Unlock()
		if n >= count {
			return b.Results(), nil
		}
		select {
		case <-ctx.Done():
			return b.Results(), ctx.Err()
		case <-b.done:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Client submits bundles to a broker over HTTP, as the parent workflow's
// submission tasks do.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// Submit POSTs one bundle.
func (c *Client) Submit(ctx context.Context, bundle Bundle) error {
	data, err := bundle.Marshal()
	if err != nil {
		return err
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/bundles", bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("trianacloud: submit %s: %s: %s", bundle.Name, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// Status fetches the broker's status counters.
func (c *Client) Status(ctx context.Context) (nodes, accepted, finished, queued int, err error) {
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/status", nil)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Nodes    int `json:"nodes"`
		Accepted int `json:"accepted"`
		Finished int `json:"finished"`
		Queued   int `json:"queued"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, 0, 0, err
	}
	return st.Nodes, st.Accepted, st.Finished, st.Queued, nil
}
