// Package server exposes the Scenario API over HTTP: `"spec":1`
// scenarios POSTed to /v1/analyze are strictly decoded and validated at
// the edge, pass admission control (a max-in-flight bound plus a bounded
// wait queue; overflow is rejected with 429 + Retry-After), run through
// the batch engine under the request's context (with an optional
// per-request timeout), and stream back per-task results as NDJSON as
// they land.
//
// WCET analysis is deterministic, so the service caches complete result
// streams in a pluggable cachestore.CacheBackend keyed by the scenario's
// content fingerprint: a repeated scenario — from any client, or after a
// process restart when a persistent tier is configured — is served
// byte-identically from the cache without re-running any analysis.
// /v1/healthz reports liveness and /v1/stats surfaces cache hit/miss
// counters per tier, the engine's memo statistics, and queue depth.
//
// Request lifecycle:
//
//	decode+validate → admission (slot or bounded queue) → fingerprint
//	→ result-cache lookup → [engine: prepare memo → analyze] → cache fill
//	→ NDJSON stream
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"paratime/internal/cachestore"
	"paratime/internal/engine"
	"paratime/internal/parallel"
	"paratime/internal/spec"
)

// respCacheVersion versions the cached NDJSON stream format; bumping it
// invalidates (by key) entries recorded by older builds, so a persistent
// tier can never replay a stale wire format.
const respCacheVersion = 1

// Defaults applied by New for zero Config fields.
const (
	DefaultMaxBody      = 16 << 20 // request body bound
	defaultDrainTimeout = 30 * time.Second
)

// Config parameterizes a Server.
type Config struct {
	// Engine runs the analyses; nil builds a private engine with an
	// unbounded in-memory prepare memo.
	Engine *engine.Engine
	// Cache holds complete per-scenario result streams keyed by
	// scenario fingerprint; nil disables result caching. A
	// *cachestore.TwoTier additionally surfaces per-tier statistics on
	// /v1/stats.
	Cache cachestore.CacheBackend
	// MaxInflight bounds concurrently running analysis requests;
	// <= 0 selects GOMAXPROCS.
	MaxInflight int
	// QueueDepth bounds requests waiting for an analysis slot; further
	// requests are rejected with 429 + Retry-After. 0 disables queueing
	// (reject as soon as every slot is busy).
	QueueDepth int
	// Timeout bounds each request's analysis work via its context;
	// <= 0 means no server-side timeout.
	Timeout time.Duration
	// MaxBody bounds the request body in bytes; <= 0 selects
	// DefaultMaxBody.
	MaxBody int64
	// Parallelism sets the process-wide worker count
	// (parallel.SetDefault) used by every analysis this server runs;
	// <= 0 keeps the current default (PARATIME_PARALLELISM or
	// GOMAXPROCS). Results are bit-identical at any value — this is
	// purely a throughput/latency trade against MaxInflight.
	Parallelism int
	// Analyze runs one validated scenario; nil selects spec.Run. It is
	// a seam for tests that need deterministic blocking or failure.
	Analyze func(ctx context.Context, s *spec.Scenario, eng *engine.Engine) (*spec.Report, error)
}

// Server is the analysis service. Create with New; serve its Handler
// with any http.Server, or use ListenAndServe for the
// graceful-shutdown-on-context wiring the CLI uses.
type Server struct {
	cfg   Config
	slots chan struct{}

	queued   atomic.Int64
	inflight atomic.Int64

	served      atomic.Uint64 // scenarios answered (cached or computed)
	cacheHits   atomic.Uint64 // scenarios served from the result cache
	cacheMisses atomic.Uint64 // scenarios that ran the analysis
	rejected    atomic.Uint64 // requests turned away by admission control
	failed      atomic.Uint64 // scenarios whose analysis errored

	// queueWait histograms each admitted request's admission latency
	// (fast-path slot grabs land in le_1).
	queueWait [len(queueWaitBounds) + 1]atomic.Uint64

	mux *http.ServeMux
}

// queueWaitBounds are the le_* bucket upper bounds of the admission-wait
// histogram, in milliseconds; waits beyond the last land in gt_1000.
var queueWaitBounds = [...]int64{1, 5, 10, 50, 100, 500, 1000}

// observeQueueWait records one admitted request's admission latency.
func (s *Server) observeQueueWait(d time.Duration) {
	ms := d.Milliseconds()
	for i, b := range queueWaitBounds {
		if ms <= b {
			s.queueWait[i].Add(1)
			return
		}
	}
	s.queueWait[len(queueWaitBounds)].Add(1)
}

// New returns a Server for the configuration.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		cfg.Engine = engine.New(0)
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.Analyze == nil {
		cfg.Analyze = spec.Run
	}
	if cfg.Parallelism > 0 {
		parallel.SetDefault(cfg.Parallelism)
	}
	s := &Server{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxInflight),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Event is one NDJSON line of an analyze response. Every scenario yields
// one Task event per task (in task order, as the scenario's results
// land) followed by exactly one terminal event carrying either the full
// Report or an Error. The stream for a given scenario is deterministic,
// which is what makes it cacheable byte-for-byte.
type Event struct {
	// Scenario and Fingerprint identify the scenario this line belongs
	// to (requests may carry an array of scenarios).
	Scenario    string `json:"scenario,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Task is one task's result (per-task event).
	Task *spec.TaskReport `json:"task,omitempty"`
	// Report is the complete structured report (terminal event).
	Report *spec.Report `json:"report,omitempty"`
	// Error reports an analysis failure (terminal event).
	Error string `json:"error,omitempty"`
}

// errorBody is the JSON body of every non-streaming error response.
type errorBody struct {
	Error string `json:"error"`
}

//paralint:canonical error bodies encode a one-field struct with a fixed json tag
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

// admit implements admission control: it returns a release function once
// an analysis slot is held, or an HTTP status when the request cannot be
// admitted (429 when slots and queue are full, 503 when the client went
// away while queued).
func (s *Server) admit(ctx context.Context) (func(), int) {
	start := time.Now()
	acquire := func() func() {
		s.observeQueueWait(time.Since(start))
		s.inflight.Add(1)
		return func() {
			s.inflight.Add(-1)
			<-s.slots
		}
	}
	select {
	case s.slots <- struct{}{}:
		return acquire(), 0
	default:
	}
	// Every slot is busy: wait in the bounded queue.
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		return nil, http.StatusTooManyRequests
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return acquire(), 0
	case <-ctx.Done():
		return nil, http.StatusServiceUnavailable
	}
}

// cacheKey ties a scenario fingerprint to the response stream format.
func cacheKey(fingerprint string) string {
	return fmt.Sprintf("resp%d|%s", respCacheVersion, fingerprint)
}

// unit is one scenario of a request, with its cache state resolved.
type unit struct {
	sc     *spec.Scenario
	fp     string
	cached []byte // complete NDJSON stream, nil on cache miss
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST a \"spec\":%d scenario (or array of scenarios) to this endpoint", spec.Version)
		return
	}
	body, err := readBody(w, r, s.cfg.MaxBody)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	// Strict decode + validation at the edge: nothing invalid reaches
	// the engine, and the error names the first problem.
	scs, err := spec.DecodeAll(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	release, status := s.admit(r.Context())
	if status != 0 {
		s.rejected.Add(1)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, "server at capacity (%d in flight, %d queued); retry later",
			s.cfg.MaxInflight, s.cfg.QueueDepth)
		return
	}
	defer release()

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}

	// Resolve fingerprints and cache state up front so the cache verdict
	// can be reported as a header before the stream starts.
	units := make([]unit, len(scs))
	allHit := true
	for i, sc := range scs {
		fp, err := sc.Fingerprint()
		if err != nil { // unreachable after DecodeAll, but stay strict
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		units[i] = unit{sc: sc, fp: fp}
		if s.cfg.Cache != nil {
			if v, ok := s.cfg.Cache.Get(cacheKey(fp)); ok {
				if stream, isBytes := v.([]byte); isBytes {
					units[i].cached = stream
				}
			}
		}
		if units[i].cached == nil {
			allHit = false
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	if s.cfg.Cache != nil {
		verdict := "miss"
		if allHit {
			verdict = "hit"
		}
		w.Header().Set("X-Paratime-Cache", verdict)
	}
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	wrote := false
	for _, u := range units {
		if u.cached != nil {
			// Cache hit: replay the recorded stream byte-for-byte.
			if _, err := w.Write(u.cached); err != nil {
				return
			}
			s.cacheHits.Add(1)
			s.served.Add(1)
			wrote = true
			flush()
			continue
		}
		s.cacheMisses.Add(1)
		rep, err := s.cfg.Analyze(ctx, u.sc, s.cfg.Engine)
		if err != nil {
			s.failed.Add(1)
			s.writeAnalysisError(w, wrote, u, err)
			return
		}
		stream, err := encodeStream(u, rep)
		if err != nil {
			s.failed.Add(1)
			s.writeAnalysisError(w, wrote, u, err)
			return
		}
		if s.cfg.Cache != nil {
			s.cfg.Cache.Put(cacheKey(u.fp), stream)
		}
		if _, err := w.Write(stream); err != nil {
			return
		}
		s.served.Add(1)
		wrote = true
		flush()
	}
}

// encodeStream renders one scenario's complete NDJSON event stream: one
// Task event per task, then the terminal Report event. The bytes are
// deterministic for a given scenario, so they are cached whole and every
// repeat answer is byte-identical.
//
//paralint:canonical the NDJSON cache encoder: Event structs with fixed json tags, one canonical byte stream per scenario
func encodeStream(u unit, rep *spec.Report) ([]byte, error) {
	var out []byte
	emit := func(ev Event) error {
		line, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		out = append(out, line...)
		out = append(out, '\n')
		return nil
	}
	for i := range rep.Tasks {
		if err := emit(Event{Scenario: u.sc.Name, Fingerprint: u.fp, Task: &rep.Tasks[i]}); err != nil {
			return nil, err
		}
	}
	if err := emit(Event{Scenario: u.sc.Name, Fingerprint: u.fp, Report: rep}); err != nil {
		return nil, err
	}
	return out, nil
}

// writeAnalysisError reports a failed scenario: as a proper HTTP error
// when nothing has streamed yet, or as a terminal Error event once the
// NDJSON stream is underway (the status line is already on the wire).
//
//paralint:canonical terminal Error events use the same fixed-tag Event struct as the cached stream
func (s *Server) writeAnalysisError(w http.ResponseWriter, wrote bool, u unit, err error) {
	if !wrote {
		status := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			// The client went away; nobody reads this status.
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "scenario %q: %v", u.sc.Name, err)
		return
	}
	line, merr := json.Marshal(Event{Scenario: u.sc.Name, Fingerprint: u.fp, Error: err.Error()})
	if merr != nil {
		return
	}
	_, _ = w.Write(append(line, '\n'))
}

func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, limit)
	defer rd.Close()
	return io.ReadAll(rd)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// StatsReply is the /v1/stats document.
type StatsReply struct {
	Requests struct {
		// Served counts scenarios answered (cache hits + computed).
		Served uint64 `json:"served"`
		// CacheHits/CacheMisses count scenarios served from / filled
		// into the result cache.
		CacheHits   uint64 `json:"cacheHits"`
		CacheMisses uint64 `json:"cacheMisses"`
		// Rejected counts requests turned away by admission control.
		Rejected uint64 `json:"rejected"`
		// Failed counts scenarios whose analysis errored.
		Failed uint64 `json:"failed"`
	} `json:"requests"`
	Queue struct {
		Inflight    int `json:"inflight"`
		Queued      int `json:"queued"`
		MaxInflight int `json:"maxInflight"`
		QueueDepth  int `json:"queueDepth"`
		// WaitMs histograms each admitted request's admission latency
		// (slot wait), in milliseconds.
		WaitMs QueueWaitReply `json:"queue_wait_ms"`
	} `json:"queue"`
	// Parallelism is the effective process-wide worker count applied
	// to every analysis this server runs.
	Parallelism int `json:"parallelism"`
	Engine      struct {
		// MemoHits/MemoMisses are the engine's Prepare-memo counters; a
		// warm-restart cache hit leaves both untouched. MemoReuse is the
		// derived reuse ratio hits/(hits+misses), 0 before any lookup.
		MemoHits   uint64  `json:"memoHits"`
		MemoMisses uint64  `json:"memoMisses"`
		MemoReuse  float64 `json:"memoReuse"`
	} `json:"engine"`
	// Cache reports the result cache (absent when caching is disabled);
	// Memory/Disk carry per-tier detail for a two-tier cache.
	Cache *CacheStatsReply `json:"cache,omitempty"`
}

// QueueWaitReply is the fixed-bucket admission-wait histogram of the
// /v1/stats document. Buckets are cumulative counts per latency range,
// not cumulative-over-bounds: each admitted request lands in exactly one.
type QueueWaitReply struct {
	Le1    uint64 `json:"le_1"`
	Le5    uint64 `json:"le_5"`
	Le10   uint64 `json:"le_10"`
	Le50   uint64 `json:"le_50"`
	Le100  uint64 `json:"le_100"`
	Le500  uint64 `json:"le_500"`
	Le1000 uint64 `json:"le_1000"`
	Gt1000 uint64 `json:"gt_1000"`
}

// CacheStatsReply reports the result cache, with optional per-tier
// breakdown for two-tier configurations.
type CacheStatsReply struct {
	cachestore.Stats
	Memory *cachestore.Stats `json:"memory,omitempty"`
	Disk   *cachestore.Stats `json:"disk,omitempty"`
}

// Stats snapshots the service counters (the /v1/stats document).
func (s *Server) Stats() StatsReply {
	var reply StatsReply
	reply.Requests.Served = s.served.Load()
	reply.Requests.CacheHits = s.cacheHits.Load()
	reply.Requests.CacheMisses = s.cacheMisses.Load()
	reply.Requests.Rejected = s.rejected.Load()
	reply.Requests.Failed = s.failed.Load()
	reply.Queue.Inflight = int(s.inflight.Load())
	reply.Queue.Queued = int(s.queued.Load())
	reply.Queue.MaxInflight = s.cfg.MaxInflight
	reply.Queue.QueueDepth = s.cfg.QueueDepth
	reply.Queue.WaitMs = QueueWaitReply{
		Le1:    s.queueWait[0].Load(),
		Le5:    s.queueWait[1].Load(),
		Le10:   s.queueWait[2].Load(),
		Le50:   s.queueWait[3].Load(),
		Le100:  s.queueWait[4].Load(),
		Le500:  s.queueWait[5].Load(),
		Le1000: s.queueWait[6].Load(),
		Gt1000: s.queueWait[7].Load(),
	}
	reply.Parallelism = parallel.Default()
	reply.Engine.MemoHits, reply.Engine.MemoMisses = s.cfg.Engine.Stats()
	reply.Engine.MemoReuse = s.cfg.Engine.ReuseRatio()
	if s.cfg.Cache != nil {
		cs := &CacheStatsReply{Stats: s.cfg.Cache.Stats()}
		if tt, ok := s.cfg.Cache.(*cachestore.TwoTier); ok {
			front, back := tt.Front().Stats(), tt.Back().Stats()
			cs.Memory, cs.Disk = &front, &back
		}
		reply.Cache = cs
	}
	return reply
}

//paralint:canonical stats replies encode fixed-tag structs; counters vary by load, the encoding does not
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}

// ListenAndServe serves the handler on addr until ctx is cancelled, then
// shuts down gracefully: the listener closes immediately, in-flight
// requests get defaultDrainTimeout to finish streaming, and the result
// cache is closed last. ready, when non-nil, is called with the bound
// address before serving (pass addr ":0" to let the OS pick a port).
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	hs := &http.Server{Handler: s.Handler()}
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		sdCtx, cancel := context.WithTimeout(context.Background(), defaultDrainTimeout)
		defer cancel()
		drained <- hs.Shutdown(sdCtx)
	}()
	err = hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		// Graceful path: wait for in-flight requests to drain.
		err = <-drained
	}
	if s.cfg.Cache != nil {
		if cerr := s.cfg.Cache.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
