package health

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wfclock"
)

// Note is one flight-recorder entry: a log-worthy event (loader restart,
// checkpoint, alert transition) the bundle preserves for triage.
type Note struct {
	At   time.Time `json:"at"`
	Kind string    `json:"kind"`
	Msg  string    `json:"msg"`
}

// Recorder is the black box: a bounded ring of recent notes. Subsystems
// call Note at event frequency (restarts, recoveries — never per-event),
// and the engine snapshots it into every diagnostics bundle.
type Recorder struct {
	clock wfclock.Clock
	mu    sync.Mutex
	notes []Note
	pos   int
	n     int
}

func newRecorder(clock wfclock.Clock, capacity int) *Recorder {
	return &Recorder{clock: clock, notes: make([]Note, capacity)}
}

// Note records one formatted entry, overwriting the oldest when full.
func (r *Recorder) Note(kind, format string, args ...any) {
	n := Note{At: r.clock.Now(), Kind: kind, Msg: fmt.Sprintf(format, args...)}
	r.mu.Lock()
	r.notes[r.pos] = n
	r.pos = (r.pos + 1) % len(r.notes)
	if r.n < len(r.notes) {
		r.n++
	}
	r.mu.Unlock()
}

// Notes returns the retained entries, oldest first.
func (r *Recorder) Notes() []Note {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Note, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.notes[(r.pos-r.n+i+len(r.notes))%len(r.notes)])
	}
	return out
}

// Meta is the bundle's meta.json.
type Meta struct {
	CreatedAt time.Time `json:"created_at"`
	Build     BuildInfo `json:"build"`
	Trigger   *Alert    `json:"trigger,omitempty"`
}

// SignalValue is one signal's last evaluation, in signals.json.
type SignalValue struct {
	Value float64 `json:"value"`
	OK    bool    `json:"ok"`
}

// SampleRecord is one retained objective sample, in signals.json.
type SampleRecord struct {
	At     time.Time `json:"at"`
	Value  float64   `json:"value"`
	Breach bool      `json:"breach"`
	OK     bool      `json:"ok"`
}

// ObjectiveStatus is one objective's live state, in signals.json.
type ObjectiveStatus struct {
	Objective
	State    string         `json:"state"`
	FastBurn float64        `json:"fast_burn"`
	SlowBurn float64        `json:"slow_burn"`
	MaxBurn  float64        `json:"max_burn"`
	Samples  []SampleRecord `json:"samples,omitempty"`
}

// SignalsDump is signals.json: what the engine saw.
type SignalsDump struct {
	Signals    map[string]SignalValue `json:"signals"`
	Objectives []ObjectiveStatus      `json:"objectives"`
}

// SpanRecord is one trace-ring span, in spans.json.
type SpanRecord struct {
	ID    uint64 `json:"id"`
	Stage string `json:"stage"`
	Label string `json:"label,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// AlertsDump is alerts.json: current and retained alert state.
type AlertsDump struct {
	Active []Alert `json:"active"`
	Recent []Alert `json:"recent"`
}

// bundleEntry is one file inside the tar.gz.
type bundleEntry struct {
	name string
	data []byte
}

// writeBundleLocked builds a bundle and writes bundle-<id>.tar.gz into
// the configured BundleDir.
func (e *Engine) writeBundleLocked(trigger *Alert) (id, path string, err error) {
	data, id, err := e.bundleLocked(trigger)
	if err != nil {
		return "", "", err
	}
	dir := e.cfg.BundleDir
	path = filepath.Join(dir, "bundle-"+id+".tar.gz")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", "", err
	}
	e.bundles = append(e.bundles, id)
	e.rec.Note("bundle", "wrote %s (%d bytes)", path, len(data))
	return id, path, nil
}

// bundleLocked snapshots the flight recorder, alert state, metrics,
// spans, partition map and runtime profiles into one in-memory tar.gz.
// Every data source it touches is lock-free or self-locking (telemetry
// atomics, the span ring, the recorder's own mutex) — nothing here calls
// back into the engine lock it already holds, which is what makes the
// capture atomic with the firing transition that requested it.
func (e *Engine) bundleLocked(trigger *Alert) (data []byte, id string, err error) {
	now := e.cfg.Clock.Now()
	entries := make([]bundleEntry, 0, 9)
	addJSON := func(name string, v any) {
		b, jerr := json.MarshalIndent(v, "", "  ")
		if jerr != nil {
			b = []byte(fmt.Sprintf("{\"error\":%q}", jerr.Error()))
		}
		entries = append(entries, bundleEntry{name, append(b, '\n')})
	}

	addJSON("meta.json", Meta{CreatedAt: now, Build: e.buildInfoLocked(), Trigger: trigger})
	addJSON("alerts.json", AlertsDump{Active: e.activeLocked(), Recent: append([]Alert(nil), e.recent...)})
	addJSON("signals.json", e.signalsDumpLocked())
	addJSON("notes.json", e.rec.Notes())
	addJSON("spans.json", e.spanRecords())
	if e.store != nil {
		addJSON("partitions.json", e.store.PartitionMap())
	}

	var prom bytes.Buffer
	_ = telemetry.Default().WritePrometheus(&prom)
	entries = append(entries, bundleEntry{"metrics.prom", prom.Bytes()})

	var goroutines bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(&goroutines, 1)
	}
	entries = append(entries, bundleEntry{"goroutines.txt", goroutines.Bytes()})

	var heap bytes.Buffer
	if p := pprof.Lookup("heap"); p != nil {
		_ = p.WriteTo(&heap, 0)
	}
	entries = append(entries, bundleEntry{"heap.pprof", heap.Bytes()})

	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	for _, en := range entries {
		hdr := &tar.Header{Name: en.name, Mode: 0o644, Size: int64(len(en.data)), ModTime: now}
		if err := tw.WriteHeader(hdr); err != nil {
			return nil, "", err
		}
		if _, err := tw.Write(en.data); err != nil {
			return nil, "", err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, "", err
	}
	if err := gz.Close(); err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	id = hex.EncodeToString(sum[:8])
	mBundlesTotal.Inc()
	return buf.Bytes(), id, nil
}

func (e *Engine) signalsDumpLocked() SignalsDump {
	d := SignalsDump{Signals: make(map[string]SignalValue, len(e.signals))}
	for name, ss := range e.signals {
		d.Signals[name] = SignalValue{Value: math.Float64frombits(ss.bits.Load()), OK: ss.ok.Load()}
	}
	for _, st := range e.objs {
		status := ObjectiveStatus{
			Objective: st.o,
			State:     st.state.String(),
			FastBurn:  math.Float64frombits(st.fastBits.Load()),
			SlowBurn:  math.Float64frombits(st.slowBits.Load()),
			MaxBurn:   st.maxBurn,
		}
		for i := st.n - 1; i >= 0; i-- {
			sm := st.samples[(st.pos-1-i+len(st.samples))%len(st.samples)]
			status.Samples = append(status.Samples, SampleRecord{At: sm.t, Value: sm.v, Breach: sm.breach, OK: sm.ok})
		}
		d.Objectives = append(d.Objectives, status)
	}
	return d
}

func (e *Engine) spanRecords() []SpanRecord {
	spans := e.cfg.Ring.Spans()
	out := make([]SpanRecord, 0, len(spans))
	for _, sp := range spans {
		out = append(out, SpanRecord{
			ID: sp.ID, Stage: sp.Stage.String(), Label: sp.Label,
			Start: sp.Start, End: sp.End, Epoch: sp.Epoch,
		})
	}
	return out
}
