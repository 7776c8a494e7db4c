package main

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"paratime/internal/experiments"
	"paratime/internal/spec"
)

func TestInputsDependOnlyOnSeed(t *testing.T) {
	gens := map[string]func(seed int64) string{
		"analyze-cold": func(seed int64) string { return fingerprint(analyzePool(seed)) },
		"sweep-grid": func(seed int64) string {
			var ins []input
			for _, d := range sweepPool(seed) {
				ins = append(ins, input{d.id, d.first}, input{d.id, d.edit})
			}
			return fingerprint(ins)
		},
		"explore-exact": func(seed int64) string {
			p, err := explorePool(seed)
			if err != nil {
				t.Fatal(err)
			}
			return fingerprint(p)
		},
		"serve-mix": func(seed int64) string { return fingerprint(servePlanFor(seed, 2*time.Second).inputs) },
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if a != b {
			t.Errorf("%s: seed 7 gave inputs %s then %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs %s", name, a)
		}
	}
}

func TestServePlanMix(t *testing.T) {
	plan := servePlanFor(3, 4*time.Second)
	kinds := map[string]int{}
	for _, r := range plan.reqs {
		kinds[r.kind]++
	}
	for _, k := range []string{"repeat", "variant", "new"} {
		if kinds[k] == 0 {
			t.Errorf("no %s requests in %v", k, kinds)
		}
	}
	if got := len(plan.inputs); got != kinds["variant"]+kinds["new"] {
		t.Errorf("%d distinct inputs for %d variants and %d new scenarios", got, kinds["variant"], kinds["new"])
	}
}

func TestRoundTripCheck(t *testing.T) {
	data := encode(newGen(1).analysisScenario("rt", spec.KindJoint, 4))
	sc, err := spec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRoundTrip(data, sc); err != nil {
		t.Fatal(err)
	}
	if err := checkRoundTrip(append([]byte(" "), data...), sc); err == nil {
		t.Error("round trip accepted bytes the scenario does not encode to")
	}
}

// exploreReport runs a solo explore scenario sequentially.
func exploreReport(t *testing.T) (*spec.Scenario, *spec.Report) {
	t.Helper()
	sc, err := spec.Decode(encode(newGen(5).exploreScenario("corrupt", spec.KindSolo)))
	if err != nil {
		t.Fatal(err)
	}
	var rep *spec.Report
	sequential(func() {
		var out []byte
		if out, err = newReference().report(sc); err == nil {
			rep, err = reportOf(out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc, rep
}

func reportOf(out []byte) (*spec.Report, error) {
	var rep spec.Report
	return &rep, json.Unmarshal(out, &rep)
}

func TestCorruptedReportsFail(t *testing.T) {
	sc, rep := exploreReport(t)
	if err := checkExplore(sc, rep, nil); err != nil {
		t.Fatalf("the uncorrupted report fails its checks: %v", err)
	}
	good, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string]func(r *spec.Report){
		"wcet+1":       func(r *spec.Report) { r.Tasks[0].WCET++ },
		"exactWorst+1": func(r *spec.Report) { r.Tasks[0].ExactWorst++ },
		"sim cycles":   func(r *spec.Report) { r.Sim[0].Cycles = r.Tasks[0].WCET + 1 },
	}
	for name, f := range corrupt {
		bad, err := reportOf(good)
		if err != nil {
			t.Fatal(err)
		}
		f(bad)
		// Either the per-operation check or the reference comparison
		// must count the operation as failed.
		o := outcome{key: "op"}
		if err := checkExplore(sc, bad, nil); err != nil {
			o.err = err.Error()
		}
		out, err := bad.Encode()
		if err != nil {
			t.Fatal(err)
		}
		o.digest = digest(out)
		r := newRun("explore-exact", defaultSeed+1, 0, false)
		if err := r.verify([]outcome{o}, func(string) ([]byte, error) { return good, nil }); err != nil {
			t.Fatal(err)
		}
		if r.attempted != 1 || r.failed != 1 {
			t.Errorf("%s: attempted %d failed %d, want 1 and 1", name, r.attempted, r.failed)
		}
	}
	// exactWorst+1 stays below the bound, so the witness replay is what
	// catches it even without a reference.
	bad, _ := reportOf(good)
	bad.Tasks[0].ExactWorst++
	if bad.Tasks[0].ExactWorst <= bad.Tasks[0].WCET {
		if err := checkWitnesses(sc, bad); err == nil {
			t.Error("witness replay accepted exactWorst+1")
		}
	}
}

func TestTightnessCheck(t *testing.T) {
	tight, err := loadTightness("../" + tightnessFile)
	if err != nil {
		t.Fatal(err)
	}
	var e experiments.TightnessEntry
	for _, e = range tight {
		break
	}
	rep := &spec.Report{Scenario: e.Scenario, Tasks: []spec.TaskReport{{Name: e.Task, WCET: e.Bound, ExactWorst: e.Exact}}}
	if err := tight.check(rep); err != nil {
		t.Fatal(err)
	}
	rep.Tasks[0].ExactWorst++
	if err := tight.check(rep); err == nil {
		t.Error("tightness check accepted a changed exact worst case")
	}
}

func TestCovered(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 60}}
	if got := covered(p, kids); got != 30+10+10 {
		t.Errorf("covered = %d, want 50", got)
	}
}

// TestSeamsUnderLoad drives the concurrent paths — sweep workers through
// the stamped manifest, the server under the open-loop client, both with
// traced seams — and checks that every output matches its reference.
func TestSeamsUnderLoad(t *testing.T) {
	r := newRun("sweep-grid", defaultSeed+1, 0, true)
	s := newSweepRun(r.tr)
	d := sweepPool(1)[0]
	if err := s.pass(d.first, "first"); err != nil {
		t.Fatal(err)
	}
	if err := s.pass(d.edit, "edit"); err != nil {
		t.Fatal(err)
	}
	if err := r.verify(s.outs, s.reference()); err != nil {
		t.Fatal(err)
	}
	if r.attempted == 0 || r.failed != 0 || s.hits == 0 {
		t.Errorf("sweep: attempted %d failed %d manifest hits %d: %v", r.attempted, r.failed, s.hits, r.failures)
	}

	r = newRun("serve-mix", defaultSeed+1, 0, true)
	plan := servePlanFor(1, time.Second)
	_, c, stop := serveSetup(r.tr, newProber(r.tr))
	defer stop()
	recs := c.openLoop(plan.reqs[:80], 2000)
	if err := r.verify(c.outcomesOf(recs), poolReference(plan.inputs)); err != nil {
		t.Fatal(err)
	}
	if r.attempted != 80 || r.failed != 0 || hitShare(recs) == 0 {
		t.Errorf("serve: attempted %d failed %d hit share %v: %v", r.attempted, r.failed, hitShare(recs), r.failures)
	}
	if self, _ := r.tr.selfTimes(); self["server.analyze"] == 0 || self["cachestore.get"] == 0 {
		t.Errorf("serve: seams recorded no spans: %v", self)
	}
}

// TestInputPercentiles checks that per-input medians keep an input that
// is slow every time in the tail and drop a single disturbed repetition,
// and that CPU percentiles take each input's least repetition.
func TestInputPercentiles(t *testing.T) {
	var l loop
	add := func(key string, d, cpu time.Duration) {
		l.lats = append(l.lats, d)
		l.cpus = append(l.cpus, cpu)
		l.keys = append(l.keys, key)
	}
	for rep := 0; rep < minRepeats; rep++ {
		for i := 0; i < minSamples; i++ {
			d := time.Millisecond
			if i%50 == 0 {
				d = 10 * time.Millisecond // slow on every repetition
			}
			if rep == 0 && i%100 == 25 {
				d = time.Second // stalled once
			}
			// CPU time falls to the latency over the repetitions.
			add(fmt.Sprintf("in-%d", i), d, d+time.Duration(minRepeats-1-rep)*time.Millisecond)
		}
	}
	add("once", time.Hour, time.Hour) // too few repetitions to count
	r := newRun("analyze-cold", defaultSeed, 0, false)
	if err := r.inputPercentiles(l); err != nil {
		t.Fatal(err)
	}
	if p50, p99 := r.metrics["latency_ms.p50"].Value, r.metrics["latency_ms.p99"].Value; p50 != 1 || p99 != 10 {
		t.Errorf("p50 %v ms, p99 %v ms; want 1 and 10", p50, p99)
	}
	if p50, p99 := r.metrics["cpu_ms.p50"].Value, r.metrics["cpu_ms.p99"].Value; p50 != 1 || p99 != 10 {
		t.Errorf("CPU p50 %v ms, p99 %v ms; want 1 and 10", p50, p99)
	}
	l.lats, l.cpus, l.keys = l.lats[:minSamples], l.cpus[:minSamples], l.keys[:minSamples]
	if err := r.inputPercentiles(l); err == nil {
		t.Error("one repetition per input gave latencies")
	}
}
