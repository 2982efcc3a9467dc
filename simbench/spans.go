package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the benchmark's own calls into the
// simulator. Parent is 0 for a root span.
type span struct {
	ID     int
	Parent int
	Name   string
	Start  time.Time
	End    time.Time
	Args   map[string]any
}

// tracer keeps spans in memory until the benchmark writes them out.
// A nil *tracer records nothing, so untraced passes pay only a nil
// check.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Now()})
	return len(t.spans)
}

// end closes span id, attaching args for the trace viewer.
func (t *tracer) end(id int, args map[string]any) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = time.Now()
	s.Args = args
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds since the tracer's epoch
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event JSON file, with
// each span's id and parent id in its args and meta (host facts, seed,
// configs) under otherData.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End.IsZero() {
			continue
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "simbench", Ph: "X",
			TS:  float64(s.Start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1, Args: args,
		})
	}
	data, err := json.MarshalIndent(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
