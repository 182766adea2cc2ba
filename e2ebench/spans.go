package main

import (
	"encoding/json"
	"sync"
	"time"

	"newtop"
)

// span is one interval the benchmark timed around a call into a layer.
// Spans of one request share a trace id; a child names its parent's id.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the span log was created
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how untraced windows run.
type spanLog struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped uint64
	trace   uint64 // last trace id handed out
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// newTrace returns a fresh trace id (0 when tracing is off).
func (l *spanLog) newTrace() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.trace++
	return l.trace
}

// add records one span and returns its id (0 when tracing is off or the
// log is full). name must be a constant: the hot path formats nothing.
func (l *spanLog) add(trace uint64, parent uint32, name string, start, end time.Time) uint32 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return 0
	}
	id := uint32(len(l.spans) + 1)
	l.spans = append(l.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)),
	})
	return id
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// write emits every span as one JSON line.
func (l *spanLog) write(enc *json.Encoder) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return err
		}
	}
	if l.dropped > 0 {
		return enc.Encode(map[string]uint64{"spans_dropped": l.dropped})
	}
	return nil
}

// finish sets the end of a span added with an open end.
func (l *spanLog) finish(id uint32, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = int64(end.Sub(l.t0))
}

// timed records a span around fn; a nil log just calls fn.
func (l *spanLog) timed(trace uint64, parent uint32, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	l.add(trace, parent, name, start, time.Now())
	return err
}

// programTrace is one of the program's own sampled delivery traces
// (Process.Traces), written next to the benchmark's spans.
type programTrace struct {
	Process uint64           `json:"process"`
	Group   uint64           `json:"group"`
	Origin  uint64           `json:"origin"`
	Num     uint64           `json:"num"`
	Stages  map[string]int64 `json:"stages_unix_ns"`
}

// stageNames are the program's delivery-trace stages, in pipeline order.
var stageNames = []string{"submit", "send", "receive", "ordered", "stable", "delivered", "applied"}

// writeProgramTraces encodes p's retained traces.
func writeProgramTraces(enc *json.Encoder, p *newtop.Process) error {
	for _, t := range p.Traces() {
		pt := programTrace{
			Process: uint64(p.Self()), Group: uint64(t.Key.Group), Origin: uint64(t.Key.Origin),
			Num: uint64(t.Key.Num), Stages: make(map[string]int64),
		}
		for i, name := range stageNames {
			if i < len(t.Stamps) && !t.Stamps[i].IsZero() {
				pt.Stages[name] = t.Stamps[i].UnixNano()
			}
		}
		if err := enc.Encode(&pt); err != nil {
			return err
		}
	}
	return nil
}
