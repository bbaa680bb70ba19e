package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"terradir/internal/telemetry"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public call it makes. Spans of one lookup share Trace; set-up spans use
// trace 0. Hop spans (the program's own per-hop records, copied from a
// traced LookupResult) carry queue-wait and service times instead of
// wall-clock bounds.
type span struct {
	Trace     uint64 `json:"trace"`
	ID        uint64 `json:"id"`
	Parent    uint64 `json:"parent,omitempty"`
	Name      string `json:"name"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	Server    int32  `json:"server,omitempty"`
	QueueUs   int64  `json:"queue_us,omitempty"`
	ServiceUs int64  `json:"service_us,omitempty"`
}

// maxSpans bounds the in-memory span buffer; spans beyond it are counted,
// not kept.
const maxSpans = 2_000_000

// tracer keeps spans in memory while enabled and writes them out when the
// run ends. Disabled, every call is one atomic load.
type tracer struct {
	on      atomic.Bool
	t0      time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t.on.Load() }

// newID returns a fresh span or trace identifier.
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// record adds a span for a call that ran from start to now and returns its
// id (0 when tracing is off).
func (t *tracer) record(trace, parent uint64, name string, start time.Time) uint64 {
	if !t.enabled() {
		return 0
	}
	id := t.newID()
	t.add(span{Trace: trace, ID: id, Parent: parent, Name: name,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(time.Since(t.t0))})
	return id
}

// around times fn as a set-up span.
func (t *tracer) around(name string, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	t.record(0, 0, name, start)
	return time.Since(start).Seconds(), err
}

// hops records the program's per-hop spans of one traced lookup as children
// of the lookup span.
func (t *tracer) hops(trace, parent uint64, at time.Time, hs []telemetry.Span) {
	if !t.enabled() {
		return
	}
	ns := int64(at.Sub(t.t0))
	for _, h := range hs {
		t.add(span{Trace: trace, ID: t.newID(), Parent: parent, Name: "overlay.hop",
			StartNs: ns, EndNs: ns, Server: h.Server, QueueUs: h.QueueWaitMicros, ServiceUs: h.ServiceMicros})
	}
}

// durationsUs returns the durations of every span with the given name.
func (t *tracer) durationsUs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return out
}

// hopTimesUs returns the queue-wait and service times of every hop span.
func (t *tracer) hopTimesUs() (queue, service []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == "overlay.hop" {
			queue = append(queue, float64(s.QueueUs))
			service = append(service, float64(s.ServiceUs))
		}
	}
	return queue, service
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", t.dropped)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
