// Package eventlog is the engine's structured event log: an append-only
// stream of typed runtime events — window closes, scheduler degradation
// decisions, plan grafts (query admission/retirement), arrangement
// lifecycle transitions, drift alerts — rendered as one JSON object per
// line (JSONL). A Log keeps a bounded in-memory ring (the statusz
// endpoint's recent-events view) and optionally streams every event to an
// io.Writer as it is emitted (cmd/ishare -events out.jsonl).
//
// Determinism: emitters assign explicit timestamps (virtual-clock offsets
// from the run epoch) and emit from canonical single-threaded accounting
// code, and encoding/json sorts attribute map keys — so a run on a
// VirtualClock produces byte-identical JSONL at any worker count. That is
// what the scheduler's golden event-log test pins.
//
// A nil *Log is the disabled log: every method no-ops behind one pointer
// check and allocates nothing. Callers building attribute maps must guard
// with Enabled() — constructing the map is the cost, not the call.
package eventlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event is one structured runtime event.
type Event struct {
	// Seq is the log-assigned sequence number (0-based, dense).
	Seq int `json:"seq"`
	// AtNS is the event's offset from the run epoch in nanoseconds, on
	// the emitter's (virtual or real) clock.
	AtNS int64 `json:"at_ns"`
	// Type names the event: "window.close", "sched.degrade",
	// "drift.alert", "graft", "arrangements", ... (see KnownTypes).
	Type string `json:"type"`
	// Window is the trigger window the event belongs to (-1 when n/a).
	Window int `json:"window"`
	// Subplan and Query locate the event (-1 when n/a).
	Subplan int `json:"subplan"`
	Query   int `json:"query"`
	// Attrs carries type-specific fields. encoding/json sorts the keys,
	// keeping the rendered line deterministic.
	Attrs map[string]interface{} `json:"attrs,omitempty"`
}

// KnownTypes is the registry of every event type the engine emits. Validate
// rejects streams carrying any other type, so a new emitter must register
// its type here — which is what keeps cmd/eventcheck an actual schema check
// rather than a JSONL well-formedness check.
var KnownTypes = map[string]bool{
	"window.close":     true, // scheduler window settled (sched)
	"sched.degrade":    true, // overload degradation decision (sched)
	"drift.alert":      true, // observed/modeled drift EWMA out of band (sched)
	"graft":            true, // live plan revision swap (sched)
	"arrangements":     true, // arrangement lifecycle deltas (sched)
	"cost.recalibrate": true, // drift folded back into the cost model (sched)
	"pace.research":    true, // warm-started pace re-search after recalibration (sched)
	"reuse.skip":       true, // clean-cone firings skippable this window (sched)
}

// Log collects events. Construct with New; a nil *Log is disabled.
type Log struct {
	mu   sync.Mutex
	sink io.Writer
	err  error // first sink write error, sticky
	seq  int

	ring []Event
	rpos int
}

// New returns a log retaining the last capacity events in memory
// (capacity ≤ 0 selects 1024) and, when sink is non-nil, streaming every
// event to it as one JSON line.
func New(sink io.Writer, capacity int) *Log {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Log{sink: sink, ring: make([]Event, 0, capacity)}
}

// Enabled reports whether the log records anything; use it to guard
// attribute-map construction on hot paths.
func (l *Log) Enabled() bool { return l != nil }

// Emit records one event, assigning its sequence number. Safe for
// concurrent use; emit order defines sequence order.
func (l *Log) Emit(typ string, atNS int64, window, subplan, query int, attrs map[string]interface{}) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Event{Seq: l.seq, AtNS: atNS, Type: typ, Window: window, Subplan: subplan, Query: query, Attrs: attrs}
	l.seq++
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.rpos] = e
		l.rpos = (l.rpos + 1) % len(l.ring)
	}
	if l.sink != nil && l.err == nil {
		b, err := json.Marshal(e)
		if err == nil {
			b = append(b, '\n')
			_, err = l.sink.Write(b)
		}
		if err != nil {
			l.err = err
		}
	}
}

// Len returns how many events were ever emitted.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Err returns the first sink write error, if any.
func (l *Log) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Events returns the retained events in sequence order (oldest first).
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.ring))
	if l.seq <= cap(l.ring) {
		return append(out, l.ring...)
	}
	out = append(out, l.ring[l.rpos:]...)
	return append(out, l.ring[:l.rpos]...)
}

// WriteJSONL renders the retained events as JSONL — the same byte form the
// streaming sink receives (minus any events the ring has evicted).
func (l *Log) WriteJSONL(w io.Writer) error {
	for _, e := range l.Events() {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks a JSONL stream against the event schema: every line must
// be a JSON object with the Event fields, sequence numbers must be dense
// and ascending from the first line's, and every event must carry a type
// from the KnownTypes registry. It returns the number of events and the
// per-type counts.
func Validate(r io.Reader) (int, map[string]int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	byType := make(map[string]int)
	n := 0
	wantSeq := -1
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return n, byType, fmt.Errorf("line %d: %w", n+1, err)
		}
		if e.Type == "" {
			return n, byType, fmt.Errorf("line %d: empty event type", n+1)
		}
		if !KnownTypes[e.Type] {
			return n, byType, fmt.Errorf("line %d: unknown event type %q", n+1, e.Type)
		}
		if wantSeq == -1 {
			wantSeq = e.Seq
		}
		if e.Seq != wantSeq {
			return n, byType, fmt.Errorf("line %d: seq %d, want %d", n+1, e.Seq, wantSeq)
		}
		wantSeq++
		byType[e.Type]++
		n++
	}
	if err := sc.Err(); err != nil {
		return n, byType, err
	}
	if n == 0 {
		return 0, byType, fmt.Errorf("no events")
	}
	return n, byType, nil
}
