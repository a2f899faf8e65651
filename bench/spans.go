package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// span is one interval at a layer boundary. Spans of one published line
// share its line index as Trace; Parent is the ID of the span that
// contains this one, 0 for a root. Batch ties the views.observe spans of
// lines that were committed by the same observer call.
type span struct {
	Trace  int32  `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Batch  int32  `json:"batch,omitempty"`
}

// buildSpans turns the traced pass's boundary stamps into spans for one
// line in sampleEach: event (due → glass, or → commit for a line no frame
// reports) containing mq.hop, eventlog.append, loader.ingest,
// views.observe and views.flush_wait back to back. Reader requests become
// root dashboard.read spans.
func (h *harness) buildSpans(reads []read) []span {
	spans := make([]span, 0, 6*(h.hi-h.preload)/sampleEach+len(reads))
	var id int32
	add := func(trace, parent int32, name string, start, end int64, batch int32) int32 {
		id++
		spans = append(spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end, Batch: batch})
		return id
	}
	first := (h.preload + sampleEach - 1) / sampleEach * sampleEach
	for i := first; i < h.hi; i += sampleEach {
		k := i / sampleEach
		if h.due[i] == 0 || h.tapAt[i] == 0 || h.obsEnd[k] == 0 {
			continue // dropped or rejected: it has no complete path
		}
		// Boundaries in path order, forced monotonic so children tile the
		// root exactly even if a frame raced the end of its observer call.
		b := []int64{h.due[i], h.tapAt[i], h.tapEnd[i], h.obsStart[k], h.obsEnd[k], h.glassAt[i]}
		for j := 1; j < len(b); j++ {
			b[j] = max(b[j], b[j-1])
		}
		t := int32(i)
		root := add(t, 0, "event", b[0], b[5], 0)
		add(t, root, "mq.hop", b[0], b[1], 0)
		add(t, root, "eventlog.append", b[1], b[2], 0)
		add(t, root, "loader.ingest", b[2], b[3], 0)
		add(t, root, "views.observe", b[3], b[4], h.obsBatch[k])
		if h.glassAt[i] != 0 {
			add(t, root, "views.flush_wait", b[4], b[5], 0)
		}
	}
	for k, rd := range reads {
		add(int32(h.hi+k), 0, "dashboard.read", rd.start, rd.end, 0)
	}
	return spans
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover.
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// printSelfTimes writes the per-layer self-time table of one traced run.
func printSelfTimes(w io.Writer, workload string, spans []span) {
	type agg struct {
		n     int
		total int64
	}
	self := selfTimes(spans)
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += self[s.ID]
	}
	names := make([]string, 0, len(by))
	for name := range by {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s self time per sampled line (1 in %d), ms\n", workload, sampleEach)
	for _, name := range names {
		a := by[name]
		fmt.Fprintf(w, "# %-18s n=%-6d mean %.3f\n", name, a.n, float64(a.total)/float64(a.n)/1e6)
	}
}

// writeSpans appends the spans as JSON lines, each tagged with its
// workload.
func writeSpans(path, workload string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workload, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
