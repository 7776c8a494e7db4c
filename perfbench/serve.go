package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paratime/internal/cachestore"
	"paratime/internal/engine"
	"paratime/internal/server"
	"paratime/internal/spec"
)

// Sizing of the CLI's serve verb: response cache, engine memo and
// admission queue.
const (
	serveCacheEntries = 1024
	serveCacheBytes   = 64 << 20
	serveMemoEntries  = 256
	serveQueueDepth   = 64
)

// serve-mix load shape. The nominal phase takes nominalShare of the
// window at nominalRate; the rest is split evenly over the capacity
// ladder's steps. A step meets the limit when its p99 latency is within
// latencyLimit and every request finished within latencyLimit of the
// step's end (no growing backlog).
const (
	nominalRate  = 300
	nominalShare = 0.85
	latencyLimit = 50 * time.Millisecond
)

var ladderRates = []float64{400, 800, 1200, 1600, 2400, 3200, 4800, 6400}

// Shares of the request mix. Repeats hit the response cache; variants
// change a system parameter outside core.PrepareKey of a recent
// scenario, so they hit the engine memo and write the response cache;
// the rest are new scenarios that miss everywhere.
const (
	repeatShare  = 0.5
	variantShare = 0.3
)

// newTasks caps the task count of serve-mix's new scenarios. Four-task
// co-runs take ten times the median service time; on two connections
// their clustering, not the server, would set p99.
const newTasks = 2

// request is one generated request: the body, and the id of the input
// whose reference its response must match.
type request struct {
	id   string
	body []byte
	kind string // "repeat", "variant" or "new"
}

// servePlan is the whole request sequence of a run, in send order.
type servePlan struct {
	reqs   []request
	inputs []input // distinct bodies, for the reference
}

// phaseRequests is how many requests a phase at rate over d sends.
func phaseRequests(rate float64, d time.Duration) int { return int(rate * d.Seconds()) }

func servePlanFor(seed int64, window time.Duration) servePlan {
	n := phaseRequests(nominalRate, time.Duration(nominalShare*float64(window)))
	step := ladderStep(window)
	for _, rate := range ladderRates {
		n += phaseRequests(rate, step)
	}
	g := newGen(seed)
	var plan servePlan
	var fresh []*spec.Scenario // recent new scenarios, variant bases
	var sent []request         // recent distinct requests, repeat candidates
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("sv-%d", i)
		x := g.rng.Float64()
		switch {
		case i >= 16 && x < repeatShare:
			// At least eight requests back, so the original has been
			// answered before its repeat is sent.
			back := sent[:len(sent)-8]
			r := back[len(back)-1-g.rng.Intn(min(len(back), 200))]
			plan.reqs = append(plan.reqs, request{id: r.id, body: r.body, kind: "repeat"})
			continue
		case i >= 16 && x < repeatShare+variantShare:
			base := *fresh[len(fresh)-1-g.rng.Intn(min(len(fresh), 32))]
			base.Name = id
			base.System.MemLatency = g.between(20, 200)
			r := request{id: id, body: encode(&base), kind: "variant"}
			plan.reqs, sent = append(plan.reqs, r), append(sent, r)
		default:
			sc := g.analysisScenario(id, analysisModes[g.rng.Intn(len(analysisModes))], newTasks)
			fresh = append(fresh, sc)
			r := request{id: id, body: encode(sc), kind: "new"}
			plan.reqs, sent = append(plan.reqs, r), append(sent, r)
		}
		plan.inputs = append(plan.inputs, input{id: id, data: plan.reqs[len(plan.reqs)-1].body})
	}
	return plan
}

func ladderStep(window time.Duration) time.Duration {
	return time.Duration((1 - nominalShare) * float64(window) / float64(len(ladderRates)))
}

// served is the client's record of one request. The response body is
// checked after the phase, so the client's own decoding neither delays
// later requests nor adds to the heap the server's collector works on.
type served struct {
	lat, late time.Duration // from due time to response end; from due time to send
	hit       bool          // answered from the response cache
	key       string
	body      []byte
	err       string
}

// client drives the server at a fixed rate with at most GOMAXPROCS
// connections, timing each request from when it was due.
type client struct {
	http *http.Client
	url  string
	tr   *tracer
	// names maps a scenario name to the span of the request carrying it,
	// so the server's Analyze hook can parent its span (traced run).
	names sync.Map
}

// openLoop sends reqs at rate starting now and returns one record per
// request, in send order.
func (c *client) openLoop(reqs []request, rate float64) []served {
	out := make([]served, len(reqs))
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(reqs) {
					return
				}
				due := t0.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				out[k] = c.do(reqs[k], due)
			}
		}()
	}
	wg.Wait()
	return out
}

// do sends one request.
func (c *client) do(req request, due time.Time) served {
	s := served{late: time.Since(due), key: req.id}
	var end func()
	if c.tr != nil {
		op := c.tr.op.Add(1)
		c.tr.do(op, 0, "spec.decode", func(int64) { _, _ = spec.DecodeAll(req.body) })
		var id int64
		id, end = c.tr.begin(op, 0, "request")
		if req.kind != "repeat" {
			c.names.Store(req.id, id)
			defer c.names.Delete(req.id)
		}
	}
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(req.body))
	if err == nil {
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.lat = time.Since(due)
	if end != nil {
		end()
	}
	switch {
	case err != nil:
		s.err = err.Error()
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(s.body))
	default:
		s.hit = resp.Header.Get("X-Paratime-Cache") == "hit"
	}
	return s
}

// outcomesOf checks each response body: its terminal report, encoded
// again, is the operation's output.
func (c *client) outcomesOf(recs []served) []outcome {
	outs := make([]outcome, len(recs))
	for i, s := range recs {
		o := outcome{key: s.key, err: s.err}
		if o.err == "" {
			rep, err := lastReport(s.body)
			var enc []byte
			if err == nil {
				encode := func(int64) { enc, err = rep.Encode() }
				if c.tr != nil {
					c.tr.do(c.tr.op.Add(1), 0, "spec.encode", encode)
				} else {
					encode(0)
				}
			}
			if err != nil {
				o.err = err.Error()
			} else {
				o.digest = digest(enc)
			}
		}
		outs[i] = o
	}
	return outs
}

// lastReport extracts the terminal report event of an NDJSON response.
func lastReport(body []byte) (*spec.Report, error) {
	var last server.Event
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		last = server.Event{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return nil, fmt.Errorf("response line: %v", err)
		}
	}
	if last.Report == nil {
		return nil, fmt.Errorf("response has no report event (error %q)", last.Error)
	}
	return last.Report, nil
}

// serveSetup starts the server as the CLI's serve verb sizes it and a
// client to it; stop shuts both down.
func serveSetup(tr *tracer, p *prober) (*server.Server, *client, func()) {
	var memo, cache cachestore.CacheBackend = cachestore.NewMemory(serveMemoEntries),
		cachestore.NewMemorySizedAdmit(serveCacheEntries, serveCacheBytes, admitFraction)
	c := &client{tr: tr}
	cfg := server.Config{QueueDepth: serveQueueDepth}
	if tr != nil {
		memo = &tracedBackend{CacheBackend: memo, t: tr, get: "engine.memo_get", put: "engine.memo_put", unparented: true}
		cache = &tracedBackend{CacheBackend: cache, t: tr, get: "cachestore.get", put: "cachestore.put", unparented: true}
		cfg.Analyze = func(ctx context.Context, sc *spec.Scenario, eng *engine.Engine) (*spec.Report, error) {
			var parent int64
			if v, ok := c.names.Load(sc.Name); ok {
				parent = v.(int64)
			}
			var rep *spec.Report
			var err error
			tr.do(0, parent, "server.analyze", func(id int64) {
				tr.do(0, id, "spec.run", func(int64) { rep, err = spec.Run(ctx, sc, eng) })
				if err == nil {
					p.scenario(0, id, sc)
				}
			})
			return rep, err
		}
	}
	cfg.Engine = engine.NewWithCache(0, memo)
	cfg.Cache = cache
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	tp := &http.Transport{MaxConnsPerHost: runtime.GOMAXPROCS(0), MaxIdleConnsPerHost: runtime.GOMAXPROCS(0)}
	c.http = &http.Client{Transport: tp}
	c.url = ts.URL + "/v1/analyze"
	return srv, c, func() {
		tp.CloseIdleConnections()
		ts.Close()
	}
}

// latencies returns the requests' latencies from their due times.
func latencies(recs []served) []time.Duration {
	ds := make([]time.Duration, len(recs))
	for i, s := range recs {
		ds[i] = s.lat
	}
	return ds
}

// lateness returns how long after its due time each request was sent.
func lateness(recs []served) []time.Duration {
	ds := make([]time.Duration, len(recs))
	for i, s := range recs {
		ds[i] = max(s.late, 0)
	}
	return ds
}

// ladder runs the capacity ladder and returns the highest rate that met
// the latency limit without a growing backlog, or 0.
func (c *client) ladder(reqs []request, window time.Duration) (float64, []served) {
	step := ladderStep(window)
	capacity := 0.0
	var all []served
	for _, rate := range ladderRates {
		n := phaseRequests(rate, step)
		start := time.Now()
		recs := c.openLoop(reqs[:n], rate)
		reqs = reqs[n:]
		all = append(all, recs...)
		failed := false
		for _, s := range recs {
			failed = failed || s.err != ""
		}
		if failed || quantile(latencies(recs), 0.99) > latencyLimit || time.Since(start) > step+latencyLimit {
			break
		}
		capacity = rate
	}
	return capacity, all
}

func runServeMix(r *run) error {
	plan, err := timeSetup(r, func() (servePlan, string, error) {
		p := servePlanFor(r.seed, r.window)
		_, _, stop := serveSetup(nil, nil)
		stop()
		return p, fingerprint(p.inputs), nil
	})
	if err != nil {
		return err
	}
	nominal := phaseRequests(nominalRate, time.Duration(nominalShare*float64(r.window)))
	if r.traced {
		return r.serveTraced(plan, nominal)
	}
	srv, c, stop := serveSetup(nil, nil)
	defer stop()
	mem := startMem()
	c0, t0 := cpuTime(), time.Now()
	recs := c.openLoop(plan.reqs[:nominal], nominalRate)
	elapsed, cpu := time.Since(t0), cpuTime()-c0
	alloc := mem.finish(r)
	capacity, ladder := c.ladder(plan.reqs[nominal:], r.window)
	r.set("capacity_rps", capacity)
	r.set("ops_per_s", float64(len(recs))/elapsed.Seconds())
	r.set("ops_per_cpu_s", float64(len(recs))/cpu.Seconds())
	r.set("alloc_kb_per_op", float64(alloc)/1024/float64(len(recs)))
	// One round: the tail of an open loop is set by how often the
	// collector's cycles (about one a second here) meet arrivals, which
	// only the whole phase samples evenly.
	l := loop{lats: latencies(recs), units: []unit{{ops: len(recs), lats: len(recs)}}}
	if err := r.roundMetrics(l, false); err != nil {
		return err
	}
	r.set("bench.gen_late_ms.p99", ms(quantile(lateness(recs), 0.99)))
	r.set("bench.resp_cache_hit_share", hitShare(recs))
	st := srv.Stats()
	r.set("bench.memo_hit_share", st.Engine.MemoReuse)
	r.set("server.rejected", float64(st.Requests.Rejected))
	return r.verify(append(c.outcomesOf(recs), c.outcomesOf(ladder)...), poolReference(plan.inputs))
}

// serveTraced runs the nominal load untraced and then traced, half the
// nominal requests each, and reports the per-layer metrics of the
// traced half. The trace overhead is the ratio of the halves' mean
// latencies, the open loop's counterpart of a throughput ratio.
func (r *run) serveTraced(plan servePlan, nominal int) error {
	half := nominal / 2
	_, c, stop := serveSetup(nil, nil)
	base := c.openLoop(plan.reqs[:half], nominalRate)
	stop()
	srv, c, stop := serveSetup(r.tr, newProber(r.tr))
	defer stop()
	traced := c.openLoop(plan.reqs[half:nominal], nominalRate)
	mean := func(recs []served) float64 {
		var sum time.Duration
		for _, s := range recs {
			sum += s.lat
		}
		return float64(sum) / float64(len(recs))
	}
	outs := c.outcomesOf(traced) // records the spec.encode spans
	r.layerMetrics(len(traced), mean(base)/mean(traced))
	self, calls := r.tr.selfTimes()
	r.set("server.self_ms", ms(self["request"])/float64(max(calls["request"], 1)))
	r.set("engine.analyze_ms", ms(self["spec.run"])/float64(len(traced)))
	st := srv.Stats()
	r.set("server.queue_wait_ms.p99", queueWaitP99(st.Queue.WaitMs))
	r.set("server.rejected", float64(st.Requests.Rejected))
	r.set("engine.memo_hit_ratio", st.Engine.MemoReuse)
	if st.Cache != nil {
		r.set("cachestore.hit_ratio", float64(st.Cache.Hits)/float64(max(st.Cache.Hits+st.Cache.Misses, 1)))
		r.set("cachestore.evictions", float64(st.Cache.Evictions))
	}
	r.set("bench.gen_late_ms.p99", ms(quantile(lateness(traced), 0.99)))
	r.set("bench.resp_cache_hit_share", hitShare(traced))
	c.tr = nil
	return r.verify(append(c.outcomesOf(base), outs...), poolReference(plan.inputs))
}

// hitShare is the share of requests the response cache answered.
func hitShare(recs []served) float64 {
	hits := 0
	for _, s := range recs {
		if s.hit {
			hits++
		}
	}
	return float64(hits) / float64(max(len(recs), 1))
}

// queueWaitP99 reads the p99 admission wait off the server's histogram
// as the upper bound of the bucket it falls in.
func queueWaitP99(h server.QueueWaitReply) float64 {
	counts := []uint64{h.Le1, h.Le5, h.Le10, h.Le50, h.Le100, h.Le500, h.Le1000, h.Gt1000}
	bounds := []float64{1, 5, 10, 50, 100, 500, 1000, 2000} // the open last bucket reads as 2000
	var total uint64
	for _, n := range counts {
		total += n
	}
	var seen uint64
	for i, n := range counts {
		seen += n
		if float64(seen) >= 0.99*float64(total) {
			return bounds[i]
		}
	}
	return 0
}
