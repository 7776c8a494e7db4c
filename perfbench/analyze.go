package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/metrics"
	"time"

	"paratime/internal/cachestore"
	"paratime/internal/engine"
	"paratime/internal/spec"
)

// Engine sizing shared by the analysis workloads: the memo LRU bound of
// the CLI's sweep verb, so the memo cannot grow with the run's length.
const memoEntries = 512

// analyzePoolSize is how many distinct scenarios analyze-cold cycles
// through. Each scenario has fresh cache geometries, and a pass over the
// pool prepares several times memoEntries keys, so a scenario's keys are
// long evicted when it comes round again: every operation misses.
const analyzePoolSize = 2048

// input is one generated operation input: the bytes the program decodes.
type input struct {
	id   string
	data []byte
}

// fingerprint identifies a generated input set, for the setup
// determinism check.
func fingerprint(ins []input) string {
	h := sha256.New()
	for _, in := range ins {
		h.Write([]byte(in.id))
		h.Write(in.data)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func analyzePool(seed int64) []input {
	g := newShapedGen(seed)
	pool := make([]input, analyzePoolSize)
	for i := range pool {
		id := fmt.Sprintf("ac-%d", i)
		// Modes in turn, so every seed has the same mode shares.
		pool[i] = input{id: id, data: encode(g.analysisScenario(id, analysisModes[i%len(analysisModes)], 4))}
	}
	return pool
}

// allocSample reads the process's cumulative heap allocation without
// stopping the world, so it can bracket single operations.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// loop is the outcome of one timed phase.
type loop struct {
	ops   int
	busy  time.Duration // time inside the timed calls
	alloc uint64        // bytes allocated inside the timed calls
	lats  []time.Duration
	cpu   time.Duration   // process CPU time inside the timed calls
	cpus  []time.Duration // process CPU time of each latency sample, or nil
	keys  []string        // the input of each latency sample, or nil
	units []unit
}

// closedLoop runs operations back to back, one client, until the window
// ends. op(i) performs operation i and returns the checks to run on its
// output; they run after the operation's clock stops.
func closedLoop(window time.Duration, op func(i int) func()) loop {
	var l loop
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		a0 := allocated()
		c0, t0 := cpuTime(), time.Now()
		check := op(i)
		d, c := time.Since(t0), cpuTime()-c0
		l.alloc += allocated() - a0
		l.busy += d
		l.cpu += c
		l.lats = append(l.lats, d)
		l.cpus = append(l.cpus, c)
		l.units = append(l.units, unit{ops: 1, busy: d, cpu: c, lats: 1})
		l.ops++
		check()
	}
	return l
}

// scenarioOp is one analysis operation: decode the input bytes, run the
// scenario, encode the report. With a tracer it records a span per step
// and probes every layer the scenario reaches.
func scenarioOp(data []byte, eng *engine.Engine, tr *tracer, p *prober) (sc *spec.Scenario, rep *spec.Report, out []byte, err error) {
	if tr == nil {
		if sc, err = spec.Decode(data); err != nil {
			return nil, nil, nil, err
		}
		if rep, err = spec.Run(context.Background(), sc, eng); err != nil {
			return sc, nil, nil, err
		}
		out, err = rep.Encode()
		return sc, rep, out, err
	}
	op := tr.op.Add(1)
	tr.do(op, 0, "op", func(root int64) {
		if tr.do(op, root, "spec.decode", func(int64) { sc, err = spec.Decode(data) }); err != nil {
			return
		}
		tr.do(op, root, "spec.run", func(id int64) {
			tr.cur.Store(id) // memo seam calls are this span's children
			defer tr.cur.Store(0)
			rep, err = spec.Run(context.Background(), sc, eng)
		})
		if err != nil {
			return
		}
		tr.do(op, root, "spec.encode", func(int64) { out, err = rep.Encode() })
		p.scenario(op, root, sc)
	})
	return sc, rep, out, err
}

// outcome is what the checks keep of one operation. Operations with one
// key share one reference output.
type outcome struct {
	key    string
	digest string
	err    string
}

// verify runs the deferred checks: for every key, the sequential
// reference output (reference returns its encoding, computed under
// sequential); for every operation, its output digest against that
// reference; for the default seed, the reference against the committed
// digests. A failed check counts the operation as failed.
func (r *run) verify(outs []outcome, reference func(key string) ([]byte, error)) error {
	var committed map[string]string
	if r.seed == defaultSeed {
		all, err := loadDigests()
		if err != nil {
			return err
		}
		committed = all[r.workload]
	}
	refs := map[string]string{}
	sequential(func() {
		for _, o := range outs {
			if _, done := refs[o.key]; done {
				continue
			}
			out, err := reference(o.key)
			if err != nil {
				refs[o.key] = "reference failed: " + err.Error()
				continue
			}
			d := digest(out)
			r.digests[o.key] = d
			r.digestOrder = append(r.digestOrder, o.key)
			refs[o.key] = d
			if want, ok := committed[o.key]; ok && want != d {
				refs[o.key] = "committed " + want
			}
		}
	})
	for _, o := range outs {
		r.attempted++
		switch want := refs[o.key]; {
		case o.err != "":
			r.fail(o.key, "%s", o.err)
		case o.digest != want:
			r.fail(o.key, "output digest %s, expected %s", o.digest, want)
		}
	}
	return nil
}

// poolReference is the reference of a pool of scenario inputs keyed by
// id: the input must survive the encode -> decode -> encode round trip,
// and its report is run on a fresh sequential engine.
func poolReference(pool []input) func(string) ([]byte, error) {
	byID := make(map[string][]byte, len(pool))
	for _, in := range pool {
		byID[in.id] = in.data
	}
	ref := newReference()
	return func(id string) ([]byte, error) {
		sc, err := spec.Decode(byID[id])
		if err != nil {
			return nil, err
		}
		if err := checkRoundTrip(byID[id], sc); err != nil {
			return nil, err
		}
		return ref.report(sc)
	}
}

func runAnalyzeCold(r *run) error {
	pool, err := timeSetup(r, func() ([]input, string, error) {
		p := analyzePool(r.seed)
		return p, fingerprint(p), nil
	})
	if err != nil {
		return err
	}
	phase := func(window time.Duration, eng *engine.Engine, tr *tracer, p *prober) (loop, []outcome) {
		var outs []outcome
		l := closedLoop(window, func(i int) func() {
			k := i % len(pool)
			sc, rep, out, err := scenarioOp(pool[k].data, eng, tr, p)
			return func() {
				o := outcome{key: pool[k].id, digest: digest(out)}
				if err == nil {
					err = checkReport(sc, rep)
				}
				if err != nil {
					o.err = err.Error()
				}
				outs = append(outs, o)
			}
		})
		for i := range l.lats {
			l.keys = append(l.keys, pool[i%len(pool)].id)
		}
		return l, outs
	}
	if !r.traced {
		eng := engine.NewWithCache(0, cachestore.NewMemory(memoEntries))
		mem := startMem()
		l, outs := phase(r.window, eng, nil, nil)
		mem.finish(r)
		hits, misses := eng.Stats()
		r.set("bench.memo_hit_share", float64(hits)/float64(max(hits+misses, 1)))
		if err := r.closedMetrics(l); err != nil {
			return err
		}
		return r.verify(outs, poolReference(pool))
	}
	base, outsA := phase(r.window/2, engine.NewWithCache(0, cachestore.NewMemory(memoEntries)), nil, nil)
	memo := &tracedBackend{CacheBackend: cachestore.NewMemory(memoEntries), t: r.tr, get: "engine.memo_get", put: "engine.memo_put"}
	eng := engine.NewWithCache(0, memo)
	traced, outsB := phase(r.window/2, eng, r.tr, newProber(r.tr))
	r.layerMetrics(traced.ops, throughput(traced)/throughput(base))
	hits, misses := eng.Stats()
	r.set("engine.memo_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	return r.verify(append(outsA, outsB...), poolReference(pool))
}

func throughput(l loop) float64 { return float64(l.ops) / l.busy.Seconds() }

// closedMetrics reports the end-to-end metrics of a closed-loop phase.
func (r *run) closedMetrics(l loop) error {
	r.set("alloc_kb_per_op", float64(l.alloc)/1024/float64(max(l.ops, 1)))
	return r.roundMetrics(l, true)
}
