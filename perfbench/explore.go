package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"paratime/internal/cachestore"
	"paratime/internal/engine"
	"paratime/internal/experiments"
	"paratime/internal/spec"
)

// explorePoolSize is how many generated explore scenarios explore-exact
// cycles through; the committed tightness scenarios are interleaved
// every tightnessEvery operations.
const (
	explorePoolSize = 240
	tightnessEvery  = 16
	tightnessFile   = "TIGHTNESS.json"
)

// explorePool draws explore scenarios round-robin over the topologies
// (solo, joint, partition and the three bus arbiters) and interleaves
// the scenarios behind TIGHTNESS.json.
func explorePool(seed int64) ([]input, error) {
	var committed []*spec.Scenario
	for _, id := range []string{"e1", "e12"} {
		scs, err := experiments.Export(id)
		if err != nil {
			return nil, err
		}
		committed = append(committed, scs...)
	}
	g := newGen(seed)
	var pool []input
	for i := 0; i < explorePoolSize; i++ {
		if i%tightnessEvery == 0 {
			sc := committed[(i/tightnessEvery)%len(committed)]
			pool = append(pool, input{id: "tightness/" + sc.Name, data: encode(sc)})
		}
		topo := exploreKinds[i%len(exploreKinds)]
		id := fmt.Sprintf("ex-%d-%s", i, topo)
		pool = append(pool, input{id: id, data: encode(g.exploreScenario(id, topo))})
	}
	return pool, nil
}

// exploreJob is what the parent hands a worker process on standard
// input: the pool, the first operation, and how long each phase still
// runs (the traced phase follows the untraced one).
type exploreJob struct {
	Data   [][]byte      `json:"data"`
	Start  int           `json:"start"`
	Base   time.Duration `json:"base"`
	Traced time.Duration `json:"traced"`
}

// exploreLine is one operation's record, streamed by the worker as soon
// as the operation's checks finish, so a crash loses only the operation
// that was running.
type exploreLine struct {
	I         int                `json:"i"`
	Traced    bool               `json:"traced,omitempty"`
	Lat       time.Duration      `json:"lat"`
	CPU       time.Duration      `json:"cpu"`
	Alloc     uint64             `json:"alloc"`
	Peak      uint64             `json:"peak"`
	Digest    string             `json:"digest,omitempty"`
	Err       string             `json:"err,omitempty"`
	Truncated bool               `json:"truncated,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	Counts    map[string]float64 `json:"counts,omitempty"`
	Done      bool               `json:"done,omitempty"`
}

// exploreWorker runs explore-exact operations in a process of their own.
// ROADMAP item 1's shared-arbiter race can end a process with a fatal
// concurrent map write, which no recover catches; the parent counts the
// operation that was running as failed and starts a new worker after it.
func exploreWorker(in io.Reader, out io.Writer) error {
	var job exploreJob
	if err := json.NewDecoder(in).Decode(&job); err != nil {
		return fmt.Errorf("explore worker: reading job: %v", err)
	}
	tight, err := loadTightness(tightnessFile)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	emit := func(l exploreLine) error {
		if err := enc.Encode(l); err != nil {
			return err
		}
		return w.Flush()
	}
	mem := startMem()
	i := job.Start
	phase := func(window time.Duration, tr *tracer) error {
		memo := cachestore.CacheBackend(cachestore.NewMemory(memoEntries))
		var p *prober
		if tr != nil {
			memo = &tracedBackend{CacheBackend: memo, t: tr, get: "engine.memo_get", put: "engine.memo_put"}
			p = newProber(tr)
		}
		eng := engine.NewWithCache(0, memo)
		var werr error
		closedLoop(window, func(int) func() {
			k := i % len(job.Data)
			a0 := allocated()
			c0, t0 := cpuTime(), time.Now()
			sc, rep, enc, err := scenarioOp(job.Data[k], eng, tr, p)
			l := exploreLine{I: i, Traced: tr != nil, Lat: time.Since(t0), CPU: cpuTime() - c0, Alloc: allocated() - a0}
			i++
			return func() {
				l.Peak = mem.peak.Load()
				if err == nil {
					err = checkExplore(sc, rep, tight)
					l.Truncated = rep.Explore != nil && rep.Explore.Truncated
				}
				if err != nil {
					l.Err = err.Error()
				} else {
					l.Digest = digest(enc)
				}
				if tr != nil {
					l.Spans, l.Counts = tr.drain()
				}
				if werr == nil {
					werr = emit(l)
				}
			}
		})
		return werr
	}
	if err := phase(job.Base, nil); err != nil {
		return err
	}
	if job.Traced > 0 {
		if err := phase(job.Traced, newTracer()); err != nil {
			return err
		}
	}
	mem.close()
	return emit(exploreLine{Done: true})
}

// checkExplore is the per-operation check of an explore scenario: the
// soundness sandwich, the witness replay, and for the committed
// scenarios equality with TIGHTNESS.json.
func checkExplore(sc *spec.Scenario, rep *spec.Report, tight tightness) error {
	if err := checkReport(sc, rep); err != nil {
		return err
	}
	if err := checkWitnesses(sc, rep); err != nil {
		return err
	}
	return tight.check(rep)
}

// drain hands over the spans and counters recorded since the last call.
func (t *tracer) drain() ([]span, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans, counts := t.spans, t.counts
	t.spans, t.counts = nil, map[string]float64{}
	return spans, counts
}

// absorb adds a worker's spans and counters to the run's tracer,
// renumbering span ids so workers cannot collide.
func (t *tracer) absorb(spans []span, counts map[string]float64, base int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Op += base
		t.spans = append(t.spans, s)
	}
	for k, v := range counts {
		t.counts[k] += v
	}
}

func runExploreExact(r *run) error {
	pool, err := timeSetup(r, func() ([]input, string, error) {
		p, err := explorePool(r.seed)
		return p, fingerprint(p), err
	})
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	job := exploreJob{Data: make([][]byte, len(pool))}
	for i, in := range pool {
		job.Data[i] = in.data
	}
	baseLen, tracedLen := r.window, time.Duration(0)
	if r.traced {
		baseLen, tracedLen = r.window/2, r.window/2
	}
	start := time.Now()
	baseEnd, tracedEnd := start.Add(baseLen), start.Add(baseLen+tracedLen)
	var base, traced loop
	var outs []outcome
	var peak uint64
	truncated, workers := 0, 0
	// Worker restarts after crashes cost wall time, so the untraced run
	// goes on past its window until p99 has its thousand samples.
	for next := 0; time.Now().Before(tracedEnd) || (!r.traced && base.ops < minSamples); {
		now := time.Now()
		job.Start = next
		job.Base = max(baseEnd.Sub(now), 0)
		job.Traced = tracedEnd.Sub(maxTime(now, baseEnd))
		if !r.traced && job.Base == 0 {
			job.Base = time.Duration(minSamples-base.ops) * 5 * time.Millisecond
		}
		lines, crash, err := runWorker(self, job)
		if err != nil {
			return err
		}
		workers++
		for _, l := range lines {
			if l.Done {
				continue
			}
			next = l.I + 1
			ph := &base
			if l.Traced {
				ph = &traced
				r.tr.absorb(l.Spans, l.Counts, int64(workers)<<40)
			}
			ph.ops++
			ph.busy += l.Lat
			ph.cpu += l.CPU
			ph.alloc += l.Alloc
			ph.lats = append(ph.lats, l.Lat)
			ph.cpus = append(ph.cpus, l.CPU)
			ph.units = append(ph.units, unit{ops: 1, busy: l.Lat, cpu: l.CPU, lats: 1})
			peak = max(peak, l.Peak)
			if l.Truncated {
				truncated++
			}
			outs = append(outs, outcome{key: pool[l.I%len(pool)].id, digest: l.Digest, err: l.Err})
		}
		if crash != "" {
			outs = append(outs, outcome{key: pool[next%len(pool)].id, err: "worker process died: " + crash})
			next++
		}
	}
	r.set("bench.explore_share", 1)
	r.set("bench.truncated_share", float64(truncated)/float64(max(len(outs), 1)))
	r.set("bench.workers", float64(workers))
	if !r.traced {
		r.set("peak_heap_mb", float64(peak)/(1<<20))
		if err := r.closedMetrics(base); err != nil {
			return err
		}
	} else {
		r.layerMetrics(traced.ops, throughput(traced)/throughput(base))
	}
	if err := r.verify(outs, poolReference(pool)); err != nil {
		return err
	}
	// Failures per topology: the generated ids end in it, the committed
	// scenarios' names carry it.
	for key, n := range r.failedKeys {
		topo := key[strings.LastIndex(key, "-")+1:]
		if name, ok := strings.CutPrefix(key, "tightness/"); ok {
			topo = "tightness." + strings.Split(name, "-")[1]
		}
		m := r.metrics["failed."+topo]
		r.metrics["failed."+topo] = metric{Value: m.Value + float64(n), Unit: "count"}
	}
	return nil
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// runWorker runs one worker process to completion and returns its
// records. crash describes how the worker died when it did not finish
// its job: the last line of its standard error.
func runWorker(self string, job exploreJob) ([]exploreLine, string, error) {
	payload, err := json.Marshal(job)
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(self, "--explore-worker")
	cmd.Stdin = bytes.NewReader(payload)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	var lines []exploreLine
	dec := json.NewDecoder(stdout)
	done := false
	for {
		var l exploreLine
		if err := dec.Decode(&l); err != nil {
			break // end of output, or a line cut short by a crash
		}
		lines = append(lines, l)
		done = done || l.Done
	}
	werr := cmd.Wait()
	if done {
		if werr != nil {
			return nil, "", fmt.Errorf("explore worker: %v", werr)
		}
		return lines, "", nil
	}
	msg := strings.TrimSpace(stderr.String())
	if i := strings.Index(msg, "\n"); i >= 0 {
		msg = msg[:i] // the fatal error line; the goroutine dump follows
	}
	if msg == "" && werr != nil {
		msg = werr.Error()
	}
	return lines, msg, nil
}
