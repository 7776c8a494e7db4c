package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"paratime/internal/cachestore"
	"paratime/internal/engine"
	"paratime/internal/spec"
	"paratime/internal/sweep"
	"paratime/internal/workload"
)

// Sizing of the CLI's sweep verb: engine memo LRU and in-memory
// manifest bounds.
const (
	sweepManifestEntries = 4096
	sweepManifestBytes   = 64 << 20
	admitFraction        = 0.25
)

// sweepWorkers is how many points a sweep prices at once. With more
// than one, a point's latency from lookup to ordered emission depends on
// which worker won the race for the points before it: one point read
// 1–10 ms across repeats of the same run, which measures the schedule,
// not the program. One worker makes the sweep a closed loop with one
// client, like the other workloads; each point's analysis keeps the
// program's default intra-analysis parallelism.
const sweepWorkers = 1

// sweepPoolSize is how many seeded sweep documents sweep-grid cycles
// through. A pass over the pool writes more manifest entries than the
// manifest holds, so a document's first pass is cold when it comes
// round again.
const sweepPoolSize = 256

// sweepDocs is one document of the pool: the first pass, and the
// second pass after a one-axis edit.
type sweepDocs struct {
	id          string
	first, edit []byte
}

// taskSet draws a "+"-joined set of one to three distinct suite kernels.
func (g *gen) taskSet() (string, int) {
	names := workload.SetNames()
	var parts []string
	for n := g.sbetween(1, 3); len(parts) < n; {
		if name := names[g.sn(len(names))]; name != "suite" && !contains(parts, name) {
			parts = append(parts, name)
		}
	}
	return strings.Join(parts, "+"), len(parts)
}

// distinct draws n distinct integers in [lo, hi].
func (g *gen) distinct(n, lo, hi int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < n {
		if v := g.between(lo, hi); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// sweepDoc draws one system-parameter sweep over a few task sets, and
// the same document with one value of its last axis replaced. The
// document's mode, task sets, partitions and axis lengths are shape
// draws; its memory latencies and bus delays are values.
func (g *gen) sweepDoc(name string) (*spec.SweepDoc, *spec.SweepDoc) {
	d := &spec.SweepDoc{Sweep: spec.SweepVersion, Name: name}
	d.Base = spec.Scenario{Spec: spec.Version, Name: name, System: g.system()}
	maxTasks := 0
	for sets := g.sbetween(2, 3); len(d.Axes.TaskSets) < sets; {
		if set, n := g.taskSet(); !contains(d.Axes.TaskSets, set) {
			d.Axes.TaskSets = append(d.Axes.TaskSets, set)
			maxTasks = max(maxTasks, n)
		}
	}
	d.Axes.MemLatency = g.distinct(g.sbetween(2, 4), 20, 120)
	switch kind := []string{spec.KindSolo, spec.KindJoint, spec.KindPartition, spec.KindBus}[g.sn(4)]; kind {
	case spec.KindBus:
		d.Base.Mode = spec.ModeSpec{Kind: kind}
		for _, p := range []string{spec.BusRoundRobin, spec.BusTDMA, spec.BusMBBA}[:g.sbetween(2, 3)] {
			b := g.arbiter(p, maxTasks)
			b.Cores = 0
			d.Axes.Bus = append(d.Axes.Bus, *b)
		}
		d.Base.Mode.Bus = &d.Axes.Bus[0]
	case spec.KindPartition:
		d.Base.Mode = spec.ModeSpec{Kind: kind}
		d.Axes.Partition = []spec.PartitionSpec{
			{Scheme: spec.PartTask},
			{Scheme: spec.PartWays, Ways: g.sbetween(1, d.Base.System.L2.Ways)},
			{Scheme: spec.PartBanks, Banks: 1, TotalBanks: g.spick(2, 4)},
		}[:g.sbetween(2, 3)]
		d.Base.Mode.Partition = &d.Axes.Partition[0]
	default:
		d.Base.Mode = spec.ModeSpec{Kind: kind}
		d.Axes.BusDelay = g.distinct(g.sbetween(3, 5), 0, 40)
	}
	// The edit moves one memory latency outside the drawn range, so it
	// dirties exactly the points on that value.
	edit := *d
	edit.Axes.MemLatency = append([]int(nil), d.Axes.MemLatency...)
	edit.Axes.MemLatency[0] = g.between(121, 400)
	return d, &edit
}

func contains[T comparable](xs []T, x T) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

func encodeSweep(d *spec.SweepDoc) []byte {
	b, err := d.Encode()
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated sweep %q is invalid: %v", d.Name, err))
	}
	return b
}

// sweepPool draws the documents from a shaped generator.
func sweepPool(seed int64) []sweepDocs {
	g := newShapedGen(seed)
	pool := make([]sweepDocs, sweepPoolSize)
	for i := range pool {
		id := fmt.Sprintf("sg-%d", i)
		first, edit := g.sweepDoc(id)
		pool[i] = sweepDocs{id: id, first: encodeSweep(first), edit: encodeSweep(edit)}
	}
	return pool
}

// stampedManifest is the sweep's manifest seam: it notes when each point
// was first looked up, which is when its pricing began, so a point's
// latency runs from there to its emission. With a tracer it also
// records get/put spans.
type stampedManifest struct {
	cachestore.CacheBackend
	mu    sync.Mutex
	start map[string]stamp // fingerprint -> its lookup
}

type stamp struct {
	at  time.Time
	cpu time.Duration // the process's CPU time at the lookup
	hit bool
}

func (m *stampedManifest) Get(key string) (any, bool) {
	_, fp, _ := strings.Cut(key, "|")
	cpu, at := cpuTime(), time.Now()
	v, ok := m.CacheBackend.Get(key)
	m.mu.Lock()
	m.start[fp] = stamp{at, cpu, ok}
	m.mu.Unlock()
	return v, ok
}

func (m *stampedManifest) started(fp string) (stamp, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.start[fp]
	delete(m.start, fp)
	return st, ok
}

// sweepRun is the state of one sweep-grid phase.
type sweepRun struct {
	eng      *engine.Engine
	manifest *stampedManifest
	loop     loop
	outs     []outcome
	points   map[string]*spec.Scenario // fingerprint -> scenario, for the reference
	hits     int                       // points answered from the manifest
	tr       *tracer
	p        *prober
}

// pass decodes one sweep document and streams it through sweep.Run in
// ordered mode; every emitted line is one operation. Its latency sample
// is keyed by the pass ("first" or "edit") and the point's fingerprint:
// a point answered from the manifest in the edit pass is another input
// than the same point priced in the first.
func (s *sweepRun) pass(data []byte, pass string) error {
	type emitted struct {
		line     sweep.Line
		lat, cpu time.Duration
		hit      bool // answered from the manifest
	}
	var lines []emitted
	var sum *sweep.Summary
	var doc *spec.SweepDoc
	var err error
	decode := func(int64) { doc, err = spec.DecodeSweep(data) }
	run := func(int64) {
		sum, err = sweep.Run(context.Background(), doc, sweep.Options{Engine: s.eng, Manifest: s.manifest, Parallelism: sweepWorkers},
			func(l sweep.Line) error {
				if st, ok := s.manifest.started(l.Fingerprint); ok {
					lines = append(lines, emitted{l, time.Since(st.at), cpuTime() - st.cpu, st.hit})
				} else {
					lines = append(lines, emitted{l, -1, -1, false})
				}
				return nil
			})
	}
	a0 := allocated()
	c0, t0 := cpuTime(), time.Now()
	if s.tr == nil {
		if decode(0); err == nil {
			run(0)
		}
	} else if s.tr.do(0, 0, "spec.decode", decode); err == nil {
		// Workers price points concurrently, so the seams' spans stay
		// unparented and this span's self time includes them.
		s.tr.do(0, 0, "sweep.run", run)
	}
	busy, cpu := time.Since(t0), cpuTime()-c0
	s.loop.alloc += allocated() - a0
	if err != nil {
		return fmt.Errorf("sweep pass: %v", err)
	}
	s.hits += sum.ManifestHits
	nlats := len(s.loop.lats)
	for _, e := range lines {
		s.loop.ops++
		o := outcome{key: e.line.Fingerprint}
		pt, perr := doc.Point(e.line.Index)
		switch {
		case e.line.Error != "":
			o.err = e.line.Error
		case perr != nil:
			o.err = perr.Error()
		case e.lat < 0:
			o.err = "emitted a point that was never looked up"
		default:
			s.loop.lats = append(s.loop.lats, e.lat)
			s.loop.cpus = append(s.loop.cpus, e.cpu)
			s.loop.keys = append(s.loop.keys, pass+"|"+e.line.Fingerprint)
			s.points[o.key] = pt.Scenario
			if err := checkReport(pt.Scenario, e.line.Report); err != nil {
				o.err = err.Error()
			} else if out, err := e.line.Report.Encode(); err == nil {
				o.digest = digest(out)
			}
			if s.tr != nil && !e.hit {
				// Probes are part of the traced operation's cost.
				t := time.Now()
				s.p.scenario(s.tr.op.Add(1), 0, pt.Scenario)
				busy += time.Since(t)
			}
		}
		if o.key == "" {
			o.key = fmt.Sprintf("%s/%d", doc.Name, e.line.Index)
		}
		s.outs = append(s.outs, o)
	}
	s.loop.busy += busy
	s.loop.cpu += cpu
	s.loop.units = append(s.loop.units, unit{ops: len(lines), busy: busy, cpu: cpu, lats: len(s.loop.lats) - nlats})
	return nil
}

func newSweepRun(tr *tracer) *sweepRun {
	var manifest cachestore.CacheBackend = cachestore.NewMemorySizedAdmit(sweepManifestEntries, sweepManifestBytes, admitFraction)
	var memo cachestore.CacheBackend = cachestore.NewMemory(memoEntries)
	s := &sweepRun{points: map[string]*spec.Scenario{}, tr: tr}
	if tr != nil {
		manifest = &tracedBackend{CacheBackend: manifest, t: tr, get: "cachestore.get", put: "cachestore.put", unparented: true}
		memo = &tracedBackend{CacheBackend: memo, t: tr, get: "engine.memo_get", put: "engine.memo_put", unparented: true}
		s.p = newProber(tr)
	}
	s.manifest = &stampedManifest{CacheBackend: manifest, start: map[string]stamp{}}
	s.eng = engine.NewWithCache(0, memo)
	return s
}

// phase runs documents, each cold and then edited, until the window ends.
func (s *sweepRun) phase(pool []sweepDocs, window time.Duration) error {
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		d := pool[i%len(pool)]
		if err := s.pass(d.first, "first"); err != nil {
			return err
		}
		if err := s.pass(d.edit, "edit"); err != nil {
			return err
		}
	}
	return nil
}

func (s *sweepRun) reference() func(string) ([]byte, error) {
	ref := newReference()
	return func(fp string) ([]byte, error) {
		sc, ok := s.points[fp]
		if !ok {
			return nil, fmt.Errorf("no scenario for %s", fp)
		}
		return ref.report(sc)
	}
}

func runSweepGrid(r *run) error {
	pool, err := timeSetup(r, func() ([]sweepDocs, string, error) {
		p := sweepPool(r.seed)
		var ins []input
		for _, d := range p {
			ins = append(ins, input{d.id, d.first}, input{d.id, d.edit})
		}
		return p, fingerprint(ins), nil
	})
	if err != nil {
		return err
	}
	if !r.traced {
		s := newSweepRun(nil)
		mem := startMem()
		err := s.phase(pool, r.window)
		mem.finish(r)
		if err != nil {
			return err
		}
		hits, misses := s.eng.Stats()
		r.set("bench.memo_hit_share", float64(hits)/float64(max(hits+misses, 1)))
		r.set("sweep.manifest_hit_ratio", float64(s.hits)/float64(max(s.loop.ops, 1)))
		if err := r.closedMetrics(s.loop); err != nil {
			return err
		}
		return r.verify(s.outs, s.reference())
	}
	base := newSweepRun(nil)
	if err := base.phase(pool, r.window/2); err != nil {
		return err
	}
	s := newSweepRun(r.tr)
	if err := s.phase(pool, r.window/2); err != nil {
		return err
	}
	r.layerMetrics(s.loop.ops, throughput(s.loop)/throughput(base.loop))
	self, _ := r.tr.selfTimes()
	r.set("engine.analyze_ms", ms(self["sweep.run"])/float64(s.loop.ops))
	hits, misses := s.eng.Stats()
	r.set("engine.memo_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	r.set("sweep.prepare_reuse", s.eng.ReuseRatio())
	r.set("sweep.manifest_hit_ratio", float64(s.hits)/float64(max(s.loop.ops, 1)))
	st := s.manifest.Stats()
	r.set("cachestore.hit_ratio", float64(st.Hits)/float64(max(st.Hits+st.Misses, 1)))
	r.set("cachestore.evictions", float64(st.Evictions))
	if err := r.verify(base.outs, base.reference()); err != nil {
		return err
	}
	return r.verify(s.outs, s.reference())
}
