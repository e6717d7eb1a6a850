// Package buffer provides the append-only delta logs that connect subplans:
// a subplan whose root has multiple parent subplans materializes its output
// into a Log, and each parent tracks its own read offset (the role Kafka
// topics play in the paper's prototype). Base-table delta logs use the same
// type. A log records its own length at every trigger-window seal, so the
// history of any window can be re-read from the log alone.
package buffer

import (
	"fmt"
	"sync"

	"ishare/internal/delta"
)

// Log is an append-only sequence of delta tuples, safe for concurrent use.
type Log struct {
	mu     sync.RWMutex
	tuples []delta.Tuple
	name   string
	// born is the number of window seals before the log was created; marks
	// holds the log's length at each seal since.
	born  int
	marks []int
}

// NewLog returns an empty log with a diagnostic name, created after sealed
// window seals (its Mark for each of them is 0).
func NewLog(name string, sealed int) *Log {
	return &Log{name: name, born: sealed}
}

// Name returns the log's diagnostic name.
func (l *Log) Name() string { return l.name }

// Append adds tuples to the end of the log.
func (l *Log) Append(ts ...delta.Tuple) {
	l.mu.Lock()
	l.tuples = append(l.tuples, ts...)
	l.mu.Unlock()
}

// Len returns the number of tuples written so far.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.tuples)
}

// Slice returns a read-only view of tuples [from, to). The log is
// append-only and logged tuples are immutable, so the view stays valid (and
// allocation-free) under concurrent appends: the capacity clamp keeps later
// appends — which either write past to or relocate the log's storage —
// outside the view. Callers must not write through it. Slice panics if the
// range is invalid so offset bugs surface immediately.
func (l *Log) Slice(from, to int) []delta.Tuple {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if from < 0 || to < from || to > len(l.tuples) {
		panic(fmt.Sprintf("buffer %s: bad slice [%d,%d) of %d", l.name, from, to, len(l.tuples)))
	}
	return l.tuples[from:to:to]
}

// All returns a read-only view of every tuple written so far.
func (l *Log) All() []delta.Tuple {
	return l.Slice(0, l.Len())
}

// Seal records the log's current length as its mark for the next window
// seal.
func (l *Log) Seal() {
	l.mu.Lock()
	l.marks = append(l.marks, len(l.tuples))
	l.mu.Unlock()
}

// Mark returns the log's length at window seal k (0-based): 0 for a seal
// before the log was created. Mark panics for a seal the log has not
// recorded, so replay bugs surface immediately.
func (l *Log) Mark(k int) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if k < l.born {
		return 0
	}
	if k-l.born >= len(l.marks) {
		panic(fmt.Sprintf("buffer %s: seal %d not recorded (%d seals)", l.name, k, l.born+len(l.marks)))
	}
	return l.marks[k-l.born]
}

// Unsealed returns how many tuples were appended since the last seal.
func (l *Log) Unsealed() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.marks) == 0 {
		return len(l.tuples)
	}
	return len(l.tuples) - l.marks[len(l.marks)-1]
}

// Reset discards all contents and seal marks.
func (l *Log) Reset() {
	l.mu.Lock()
	l.tuples, l.marks = nil, nil
	l.mu.Unlock()
}

// Reader is one consumer's cursor over a log. Each parent subplan owns one
// reader per input buffer, so parents consume at independent paces.
type Reader struct {
	log   *Log
	off   int
	limit int
}

// NewReader returns a cursor at the start of the log.
func (l *Log) NewReader() *Reader {
	return &Reader{log: l, limit: -1}
}

// SetLimit caps ReadNew at log position n until ClearLimit. Replay after a
// plan graft uses this with the log's Mark to feed an executor exactly one
// sealed window's worth of input even though the log already holds the full
// history.
func (r *Reader) SetLimit(n int) { r.limit = n }

// Log returns the log the reader consumes.
func (r *Reader) Log() *Log { return r.log }

// ClearLimit removes the ReadNew cap.
func (r *Reader) ClearLimit() { r.limit = -1 }

// ReadNew returns all tuples appended since the previous call and advances
// the cursor past them.
func (r *Reader) ReadNew() []delta.Tuple {
	end := r.log.Len()
	if r.limit >= 0 && end > r.limit {
		end = r.limit
	}
	if end <= r.off {
		return nil
	}
	out := r.log.Slice(r.off, end)
	r.off = end
	return out
}

// Offset returns the cursor position.
func (r *Reader) Offset() int { return r.off }

// Pending returns how many tuples are readable without advancing.
func (r *Reader) Pending() int { return r.log.Len() - r.off }
