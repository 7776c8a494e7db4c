package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// e2eGated are the end-to-end metrics the untraced run reports on its
// result line: the ones BENCHMARK.json bounds. Their times are process
// CPU time, which a busy host's steal leaves out. The wall-clock
// ops_per_s and latency_ms.*, error_rate (0 on every gated workload,
// carried by attempted/failed instead) and capacity_rps (serve-mix only)
// are printed in the table alongside them.
var e2eGated = []string{"setup_s", "ops_per_cpu_s", "cpu_ms.p50", "cpu_ms.p99", "alloc_kb_per_op", "peak_heap_mb"}

// layerMetrics are the per-layer metrics of the traced run. Times are
// self time per operation; a layer a workload never enters reads 0.
var layerMetrics = []string{
	"cfg.build_us", "flow.bound_us", "cache.analyze_ms", "core.prepare_ms", "core.prepare_key_us",
	"core.compute_wcet_ms", "ipet.pivots", "ipet.bb_nodes", "ipet.fellback", "interfere.joint_ms",
	"engine.analyze_ms", "engine.memo_hit_ratio",
	"sim.run_ms", "sim.minstr_per_s", "explore.explore_ms", "explore.states_per_s", "explore.truncated",
	"cachestore.get_us", "cachestore.put_us", "cachestore.hit_ratio", "cachestore.evictions",
	"spec.decode_us", "spec.encode_us", "server.self_ms", "server.queue_wait_ms.p99", "server.rejected",
	"sweep.prepare_reuse", "sweep.manifest_hit_ratio", "bench.gen_late_ms.p99", "bench.trace_overhead",
	"bench.resp_cache_hit_share",
}

// units maps every metric to its unit.
var units = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "latency_ms.p50": "ms", "latency_ms.p99": "ms",
	"error_rate": "ratio", "alloc_kb_per_op": "KiB", "peak_heap_mb": "MiB", "capacity_rps": "1/s",
	"cfg.build_us": "us", "flow.bound_us": "us", "cache.analyze_ms": "ms", "core.prepare_ms": "ms",
	"core.prepare_key_us": "us", "core.compute_wcet_ms": "ms", "ipet.pivots": "count", "ipet.bb_nodes": "count",
	"ipet.fellback": "count", "interfere.joint_ms": "ms", "engine.analyze_ms": "ms", "engine.memo_hit_ratio": "ratio",
	"sim.run_ms": "ms", "sim.minstr_per_s": "Minstr/s", "explore.explore_ms": "ms", "explore.states_per_s": "1/s",
	"explore.truncated": "count", "cachestore.get_us": "us", "cachestore.put_us": "us",
	"cachestore.hit_ratio": "ratio", "cachestore.evictions": "count", "spec.decode_us": "us",
	"spec.encode_us": "us", "server.self_ms": "ms", "server.queue_wait_ms.p99": "ms", "server.rejected": "count",
	"sweep.prepare_reuse": "ratio", "sweep.manifest_hit_ratio": "ratio", "bench.gen_late_ms.p99": "ms",
	"bench.trace_overhead": "ratio", "bench.memo_hit_share": "ratio", "bench.resp_cache_hit_share": "ratio",
	"bench.explore_share": "ratio", "bench.truncated_share": "ratio", "bench.workers": "count",
	"bench.latency_inputs": "count", "ops_per_cpu_s": "1/s", "cpu_ms.p50": "ms", "cpu_ms.p99": "ms",
	"setup_wall_s": "s",
}

// setupRepeats is how often a run sets its workload up; setup_s is the
// median, so one slow repetition does not move it.
const setupRepeats = 7

// run is one benchmark invocation: its parameters, the operations it
// attempted, and the metrics it reports.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	tr       *tracer

	attempted, failed int
	failures          []string       // first few failure descriptions
	failedKeys        map[string]int // failed operations per input key
	metrics           map[string]metric
	digests           map[string]string // input key -> reference output digest
	digestOrder       []string          // keys in the order operations first used them
}

func newRun(workload string, seed int64, window time.Duration, traced bool) *run {
	r := &run{workload: workload, seed: seed, window: window, traced: traced,
		metrics: map[string]metric{}, digests: map[string]string{}, failedKeys: map[string]int{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func (r *run) set(name string, v float64) { r.metrics[name] = metric{Value: v, Unit: units[name]} }

// fail counts one failed operation on the input key; the run never
// aborts on it.
func (r *run) fail(key, format string, args ...any) {
	r.failed++
	r.failedKeys[key]++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, key+": "+fmt.Sprintf(format, args...))
	}
}

// timeSetup runs setup setupRepeats times, reports the median process
// CPU time as setup_s (and the median wall time as setup_wall_s), and
// returns the last repetition's value. Every repetition must produce the
// same inputs (fingerprint), which is the generator's determinism
// contract.
func timeSetup[T any](r *run, setup func() (T, string, error)) (T, error) {
	var out T
	var times, walls []float64
	first := ""
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		c0, start := cpuTime(), time.Now()
		v, fp, err := setup()
		walls = append(walls, time.Since(start).Seconds())
		times = append(times, (cpuTime() - c0).Seconds())
		if err != nil {
			return out, err
		}
		if i == 0 {
			first = fp
		} else if fp != first {
			return out, fmt.Errorf("setup is not deterministic: input fingerprint %s then %s", first, fp)
		}
		out = v
	}
	r.set("setup_s", median(times))
	r.set("setup_wall_s", median(walls))
	return out, nil
}

// digest is the short content hash the reference checks compare.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of the samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minSamples is the fewest latency samples that leave ten beyond p99.
const minSamples = 1000

// minRepeats is the fewest timed repetitions an input needs for its
// latency and CPU time to count: with three, one repetition disturbed by
// a collection or by another process moves neither.
const minRepeats = 3

// unit is a stretch of timed work: ops operations, busy and CPU time
// inside the timed calls, and the number of latency samples it added to
// its loop.
type unit struct {
	ops  int
	busy time.Duration
	cpu  time.Duration
	lats int
}

// roundMetrics splits a phase into consecutive rounds of at least
// minSamples latency samples and reports the median over rounds of
// latency_ms.p50 and latency_ms.p99 (cpu_ms.* from the CPU samples) and,
// with rate, of ops_per_s and ops_per_cpu_s. A burst of noise from
// outside the benchmark then moves one round, not the result. A phase
// too short for one round is an error of the benchmark's sizing. A phase
// whose samples are keyed by input takes its percentiles from
// inputPercentiles instead.
func (r *run) roundMetrics(l loop, rate bool) error {
	var p50, p99, c50, c99, tput, cpuTput []float64
	ops, busy, cpu, from, to := 0, time.Duration(0), time.Duration(0), 0, 0
	close := func() {
		lats := l.lats[from:to]
		p50 = append(p50, ms(quantile(lats, 0.50)))
		p99 = append(p99, ms(quantile(lats, 0.99)))
		if l.cpus != nil {
			c50 = append(c50, ms(quantile(l.cpus[from:to], 0.50)))
			c99 = append(c99, ms(quantile(l.cpus[from:to], 0.99)))
		}
		tput = append(tput, float64(ops)/busy.Seconds())
		cpuTput = append(cpuTput, float64(ops)/cpu.Seconds())
		ops, busy, cpu, from = 0, 0, 0, to
	}
	for i, u := range l.units {
		ops, busy, cpu, to = ops+u.ops, busy+u.busy, cpu+u.cpu, to+u.lats
		// A round closes at minSamples unless too few samples would be
		// left for another; the last round takes the remainder.
		if to-from >= minSamples && (i == len(l.units)-1 || len(l.lats)-to >= minSamples) {
			close()
		}
	}
	if len(p99) == 0 {
		return fmt.Errorf("%d latency samples: p99 needs at least %d (ten beyond it); lengthen --seconds", len(l.lats), minSamples)
	}
	r.set("latency_ms.p50", median(p50))
	r.set("latency_ms.p99", median(p99))
	if c50 != nil {
		r.set("cpu_ms.p50", median(c50))
		r.set("cpu_ms.p99", median(c99))
	}
	if l.keys != nil {
		if err := r.inputPercentiles(l); err != nil {
			return err
		}
	}
	if rate {
		r.set("ops_per_s", median(tput))
	}
	if rate && l.cpu > 0 {
		r.set("ops_per_cpu_s", median(cpuTput))
	}
	return nil
}

// inputPercentiles reports the percentiles over the phase's distinct
// inputs, which the closed loops repeat over the whole phase. For
// latency_ms.* an input's latency is the median of its repetitions, so
// a collection or another process that stalls a few operations moves no
// input's latency, while an input that is slow every time sits in the
// tail. For cpu_ms.* an input's CPU time is the least over its
// repetitions: on a shared host the slow inputs' CPU time rises with
// the host's load for many repetitions at a time, and the least one is
// the input's own cost. Inputs timed fewer than minRepeats times are
// left out; at least minSamples inputs must remain, which leaves ten
// beyond p99.
func (r *run) inputPercentiles(l loop) error {
	type reps struct{ lats, cpus []time.Duration }
	byKey := map[string]*reps{}
	for i, d := range l.lats {
		k := byKey[l.keys[i]]
		if k == nil {
			k = &reps{}
			byKey[l.keys[i]] = k
		}
		k.lats = append(k.lats, d)
		if l.cpus != nil {
			k.cpus = append(k.cpus, l.cpus[i])
		}
	}
	var meds, mins []time.Duration
	for _, k := range byKey {
		if len(k.lats) >= minRepeats {
			meds = append(meds, quantile(k.lats, 0.5))
			if k.cpus != nil {
				mins = append(mins, slices.Min(k.cpus))
			}
		}
	}
	if len(meds) < minSamples {
		return fmt.Errorf("%d inputs timed at least %d times: p99 needs at least %d (ten beyond it); lengthen --seconds", len(meds), minRepeats, minSamples)
	}
	r.set("latency_ms.p50", ms(quantile(meds, 0.50)))
	r.set("latency_ms.p99", ms(quantile(meds, 0.99)))
	if mins != nil {
		r.set("cpu_ms.p50", ms(quantile(mins, 0.50)))
		r.set("cpu_ms.p99", ms(quantile(mins, 0.99)))
	}
	r.set("bench.latency_inputs", float64(len(meds)))
	return nil
}

// cpuTime is the CPU time the process has used in all its threads. On a
// virtual machine that accounts steal time it leaves out the time the
// host gave the machine's processors to someone else.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memProbe measures a timed phase's allocation and peak heap: a sampler
// goroutine reads the live-plus-unswept heap every millisecond.
type memProbe struct {
	alloc0 uint64
	stop   chan struct{}
	wg     sync.WaitGroup
	peak   atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startMem() *memProbe {
	runtime.GC()
	p := &memProbe{stop: make(chan struct{}), alloc0: allocated()}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > p.peak.Load() {
				p.peak.Store(v)
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// close stops the sampler and returns the peak heap in bytes.
func (p *memProbe) close() uint64 {
	close(p.stop)
	p.wg.Wait()
	return p.peak.Load()
}

// finish stops the sampler, reports peak_heap_mb, and returns the bytes
// allocated since start.
func (p *memProbe) finish(r *run) uint64 {
	r.set("peak_heap_mb", float64(p.close())/(1<<20))
	return allocated() - p.alloc0
}

// layerMetrics reports the traced phase's per-layer metrics: self time
// per operation for layers, mean time per call for cache backends, and
// the counters the probes and seams collected. overhead is the traced
// phase's throughput relative to the untraced phase's.
func (r *run) layerMetrics(ops int, overhead float64) {
	self, calls := r.tr.selfTimes()
	perOp := func(name string, unit time.Duration) float64 {
		return float64(self[name]) / float64(unit) / float64(max(ops, 1))
	}
	perCall := func(name string) float64 {
		return float64(self[name]) / float64(time.Microsecond) / float64(max(calls[name], 1))
	}
	rate := func(count, name string) float64 {
		if s := self[name].Seconds(); s > 0 {
			return r.tr.counts[count] / s
		}
		return 0
	}
	perOpCount := func(name string) float64 { return r.tr.counts[name] / float64(max(ops, 1)) }
	r.set("cfg.build_us", perOp("cfg.build", time.Microsecond))
	r.set("flow.bound_us", perOp("flow.bound", time.Microsecond))
	r.set("cache.analyze_ms", perOp("cache.analyze", time.Millisecond))
	r.set("core.prepare_ms", perOp("core.prepare", time.Millisecond))
	r.set("core.prepare_key_us", perOp("core.prepare_key", time.Microsecond))
	r.set("core.compute_wcet_ms", perOp("core.compute_wcet", time.Millisecond))
	r.set("ipet.pivots", perOpCount("ipet.pivots"))
	r.set("ipet.bb_nodes", perOpCount("ipet.bb_nodes"))
	r.set("ipet.fellback", r.tr.counts["ipet.fellback"])
	r.set("interfere.joint_ms", perOp("interfere.joint", time.Millisecond))
	r.set("engine.analyze_ms", perOp("spec.run", time.Millisecond))
	r.set("sim.run_ms", perOp("sim.run", time.Millisecond))
	r.set("sim.minstr_per_s", rate("sim.retired", "sim.run")/1e6)
	r.set("explore.explore_ms", perOp("explore.explore", time.Millisecond))
	r.set("explore.states_per_s", rate("explore.states", "explore.explore"))
	r.set("explore.truncated", r.tr.counts["explore.truncated"])
	r.set("cachestore.get_us", perCall("cachestore.get"))
	r.set("cachestore.put_us", perCall("cachestore.put"))
	r.set("spec.decode_us", perOp("spec.decode", time.Microsecond))
	r.set("spec.encode_us", perOp("spec.encode", time.Microsecond))
	r.set("bench.trace_overhead", overhead)
}
