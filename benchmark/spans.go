package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ishare/internal/trace"
)

// span is one timed call recorded by a traced pass. Req groups the spans of
// one request (a planning request or a trigger window); Parent is 0 for a
// request's root span. Times are nanoseconds from the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced pass's spans in memory. A nil *recorder is the
// untraced pass: every method does nothing.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// begin opens a span and returns its id; close it with end.
func (r *recorder) begin(req, parent int, layer, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Layer: layer, Start: r.now()})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = r.now()
}

// add records a span with known bounds, clamped into its parent's interval
// (spans imported from the program's tracer run on a clock whose epoch is a
// few nanoseconds off this recorder's).
func (r *recorder) add(req, parent int, layer, name string, start, end int64) int {
	if r == nil {
		return 0
	}
	if parent != 0 {
		p := r.spans[parent-1]
		start = min(max(start, p.Start), p.End)
		end = min(max(end, start), p.End)
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Layer: layer, Start: start, End: end})
	return len(r.spans)
}

// importProgram adds the spans the program's own tracer recorded during one
// call as children of that call's span. opened is the recorder offset at
// which the program tracer was created; its offsets count from there. The
// program's build and search spans are flat within a call, so each becomes
// a direct child of parent.
func (r *recorder) importProgram(req, parent int, opened int64, tr *trace.Tracer) error {
	if r == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return err
	}
	var doc struct {
		Events []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return fmt.Errorf("read program trace: %w", err)
	}
	for _, e := range doc.Events {
		if e.Ph != "X" {
			continue
		}
		start := opened + int64(e.Ts*1e3)
		r.add(req, parent, programLayer(e.Name), e.Name, start, start+int64(e.Dur*1e3))
	}
	return nil
}

// programLayer maps a span name of the program's tracer to its layer.
func programLayer(name string) string {
	switch name {
	case "mqo.build":
		return "mqo"
	case "plan.bind":
		return "plan"
	}
	return "pace" // greedy and reverse-greedy searches, cost simulation inside
}

// check verifies the spans are well formed: ids are dense, every parent
// exists in the same request and encloses its child, and no span ends before
// it starts.
func (r *recorder) check() error {
	for i, s := range r.spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent >= s.ID {
			return fmt.Errorf("span %d %s has parent %d", s.ID, s.Name, s.Parent)
		}
		p := r.spans[s.Parent-1]
		if p.Req != s.Req {
			return fmt.Errorf("span %d %s (request %d) has parent %d in request %d", s.ID, s.Name, s.Req, p.ID, p.Req)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s lies outside its parent %d %s", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// selfNS returns each span's self time: its duration minus the part of it
// its children cover. Children of one span may overlap, so their union is
// subtracted.
func (r *recorder) selfNS() []int64 {
	kids := make([][]span, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], s)
		}
	}
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			from := max(c.Start, reach)
			if c.End > from {
				covered += c.End - from
				reach = c.End
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelfMS sums self time by layer, in milliseconds.
func (r *recorder) layerSelfMS() map[string]float64 {
	out := map[string]float64{}
	for i, ns := range r.selfNS() {
		out[r.spans[i].Layer] += float64(ns) / 1e6
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
