package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"paratime/internal/cachestore"
)

// span is one recorded interval at a layer boundary. Spans of one
// operation share Op; Parent links a span to the span that caused it
// (0 for an operation's root or an unattributed seam call).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans and counters in memory until the run ends. Every
// span is recorded from the benchmark's own files, around a call into
// one layer's public function or through one of the program's seams (a
// cache backend or the server's Analyze hook).
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// cur is the span seam calls without a context attribute to: the
	// closed-loop workloads run one operation at a time, so it is that
	// operation's call into the engine.
	cur atomic.Int64
	op  atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// begin opens a span; the returned function closes it.
func (t *tracer) begin(op, parent int64, name string) (int64, func()) {
	id := t.nextID.Add(1)
	start := time.Since(t.t0)
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(start), End: int64(end)})
		t.mu.Unlock()
	}
}

// do records a span around f, passing f the span's id for children.
func (t *tracer) do(op, parent int64, name string, f func(id int64)) {
	id, end := t.begin(op, parent, name)
	f(id)
	end()
}

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover, and counts the spans.
func (t *tracer) selfTimes() (map[string]time.Duration, map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self, n := map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, kids[s.ID]))
		n[s.Name]++
	}
	return self, n
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
	var total int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
		} else {
			hi = max(hi, e)
		}
	}
	return total + hi - lo
}

// write stores every span and counter as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedBackend wraps a cache backend seam (the engine memo, the
// server's response cache, the sweep manifest) in get/put spans
// attributed to the tracer's current span.
type tracedBackend struct {
	cachestore.CacheBackend
	t          *tracer
	get, put   string
	unparented bool // concurrent callers: no current span to attribute to
}

// attribution returns the operation and parent span of a seam call.
func (b *tracedBackend) attribution() (int64, int64) {
	if b.unparented {
		return 0, 0
	}
	return b.t.op.Load(), b.t.cur.Load()
}

func (b *tracedBackend) Get(key string) (v any, ok bool) {
	op, parent := b.attribution()
	_, end := b.t.begin(op, parent, b.get)
	v, ok = b.CacheBackend.Get(key)
	end()
	return v, ok
}

func (b *tracedBackend) Put(key string, val any) {
	op, parent := b.attribution()
	_, end := b.t.begin(op, parent, b.put)
	b.CacheBackend.Put(key, val)
	end()
}
