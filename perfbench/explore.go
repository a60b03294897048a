package main

import (
	"math/rand/v2"
	"runtime"
	"time"
)

func runExploreTiming(cfg runConfig) (*report, error)     { return runExplore(cfg, timingBattery) }
func runExploreStructural(cfg runConfig) (*report, error) { return runExplore(cfg, structuralBattery) }

// minPasses is the fewest battery passes a measurement makes, so every
// question has a best-of-k with k ≥ minPasses however short the run.
const minPasses = 3

// runExplore measures one closed-loop explore workload: a single caller
// asking a battery of distinct questions, one at a time, of warm
// per-baseline sweep pools.
func runExplore(cfg runConfig, battery func(*rand.Rand) ([]*baseSpec, []*question)) (*report, error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 0x6461796472656d))
	specs, qs := battery(rng)
	rep := &report{}

	// References and ground truth, outside all timing, on baselines of
	// their own (collection is deterministic, so every set-up below
	// rebuilds identical graphs).
	refBases := make([]*baseline, len(specs))
	for i, s := range specs {
		b, _, err := collectBaseline(s)
		if err != nil {
			return nil, err
		}
		refBases[i] = b
	}
	if err := prepareReferences(qs, refBases); err != nil {
		return nil, err
	}

	// Set-up: fresh state to answerable — every baseline collected and
	// built, a pool per baseline — plus one cold pass over the battery,
	// so work moved into lazy set-up shows. The run is cut into setups
	// slices with a fresh set-up before each, so the set-ups sample the
	// whole run rather than one burst of neighbour load; each set-up's
	// warm state is then measured for its slice.
	measure := cfg.measure
	if cfg.traced {
		measure /= 2
	}
	var (
		bases      []*baseline
		setupSecs  []float64
		setupCosts []collectCost
	)
	m := newMeasurement(len(qs))
	for i := 0; i < setups; i++ {
		bases = nil
		runtime.GC()
		t0 := time.Now()
		var cost collectCost
		for _, s := range specs {
			b, c, err := collectBaseline(s)
			if err != nil {
				return nil, err
			}
			cost.add(c)
			bases = append(bases, b)
		}
		for _, q := range qs {
			a, _, err := ask(q, bases[q.base])
			rep.check(err == nil && a == q.ref)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		setupCosts = append(setupCosts, cost)
		m.run(qs, bases, measure/setups, rep)
	}
	m.finish(qs, bases, rep)
	rep.e2e("setup_s", "s", median(setupSecs))
	rep.note("set-up: %d fresh set-ups of %d baselines + a cold pass over %d questions, one before each slice of the run; setup_s is the median of %.4f s",
		setups, len(specs), len(qs), setupSecs)

	n := float64(len(qs))
	bestMS := make([]float64, len(qs))
	for i, d := range m.best {
		bestMS[i] = msOf(d)
	}
	answersPerS := n / (sum(bestMS) / 1000)
	meanErr, maxErr, nTruth := predError(qs)

	rep.e2e("answers_per_s", "1/s", answersPerS)
	rep.e2e("latency_p50_ms", "ms", median(bestMS))
	rep.e2e("latency_p90_ms", "ms", quantile(bestMS, 0.90))
	rep.e2e("latency_p99_ms", "ms", quantile(bestMS, 0.99))
	rep.e2e("alloc_kb_per_answer", "KiB", m.allocKBPerAnswer)
	rep.e2e("peak_heap_mb", "MiB", m.peakHeapMB)
	rep.e2e("pred_error_pct", "%", meanErr)
	rep.e2e("pred_error_max_pct", "%", maxErr)
	rep.note("battery: %d distinct questions over %d baselines; %d passes, %d timed answers in %.2f s",
		len(qs), len(specs), m.passes, m.answers, m.wall.Seconds())
	rep.note("answers_per_s = battery size / sum of each question's fastest warm answer; latency_pXX over those %d per-question fastest times", len(qs))
	rep.note("pred_error over the %d questions with framework ground truth; none exists for %s", nTruth, noTruthKinds)

	if cfg.traced {
		cost := medianCost(setupCosts)
		rep.layer("framework.collect_ms", "ms", msOf(cost.collect))
		rep.layer("core.build_ms", "ms", msOf(cost.build))
		rep.layer("core.build_allocs", "count", float64(cost.buildAllocs))
		items := make([]*traceItem, len(qs))
		for i, q := range qs {
			items[i] = &traceItem{q: q, b: bases[q.base], tier: m.tier[i], pool: m.best[i]}
		}
		lt, err := traceLayers(items, bases, cfg.measure-measure, rep)
		if err != nil {
			return nil, err
		}
		lt.report(rep, layerOpts{gcCPUPct: m.gcCPUPct, wallPerS: float64(m.answers) / m.wall.Seconds()})
		noServeLayers(rep)
	}
	return rep, nil
}

// measurement accumulates timed closed-loop slices over a battery.
type measurement struct {
	best             []time.Duration // per-question fastest answer
	tier             []string        // per-question tier of the last answer
	passes, answers  int
	wall             time.Duration
	allocBytes       uint64
	gcCPU, totalCPU  float64
	order            *rand.Rand
	allocKBPerAnswer float64
	gcCPUPct         float64
	peakHeapMB       float64
}

func newMeasurement(n int) *measurement {
	m := &measurement{
		best:  make([]time.Duration, n),
		tier:  make([]string, n),
		order: rand.New(rand.NewPCG(1, 2)), // the same orders on every seed, so GC cycles land alike
	}
	for i := range m.best {
		m.best[i] = forever
	}
	return m
}

// run asks the battery in a fresh order each pass until d has passed
// (at least one pass, and minPasses in all), timing every answer and
// verifying it against its reference.
func (m *measurement) run(qs []*question, bases []*baseline, d time.Duration, rep *report) {
	runtime.GC()
	rt0, alloc0 := readRuntime(), allocBytes()
	start := time.Now()
	for pass := 0; pass == 0 || m.passes < minPasses || time.Since(start) < d; pass++ {
		for _, i := range m.order.Perm(len(qs)) {
			q := qs[i]
			t0 := time.Now()
			a, tier, err := ask(q, bases[q.base])
			el := time.Since(t0)
			ok := err == nil && a == q.ref
			rep.check(ok)
			m.answers++
			if ok {
				m.best[i] = min(m.best[i], el)
			}
			m.tier[i] = tier
		}
		m.passes++
	}
	m.wall += time.Since(start)
	rt1, alloc1 := readRuntime(), allocBytes()
	m.allocBytes += alloc1 - alloc0
	m.gcCPU += rt1.gcCPU - rt0.gcCPU
	m.totalCPU += rt1.totalCPU - rt0.totalCPU
}

// finish derives the run-wide figures and measures the peak live heap
// on the last slice's state.
func (m *measurement) finish(qs []*question, bases []*baseline, rep *report) {
	m.allocKBPerAnswer = float64(m.allocBytes) / 1024 / float64(m.answers)
	if m.totalCPU > 0 {
		m.gcCPUPct = 100 * m.gcCPU / m.totalCPU
	}
	for i, b := range m.best {
		if b == forever {
			m.best[i] = m.wall // never answered correctly: counted failed; keep the metric finite
		}
	}
	// Peak live heap: one more untimed pass in battery order, collecting
	// fully after each answer, so the figure is the warm state plus the
	// largest deltas one answer leaves retained — independent of where
	// the timed loop's GC cycles happened to land.
	for _, q := range qs {
		a, _, err := ask(q, bases[q.base])
		rep.check(err == nil && a == q.ref)
		m.peakHeapMB = max(m.peakHeapMB, liveHeapMB())
	}
}

func medianCost(cs []collectCost) collectCost {
	var col, bld, al []float64
	for _, c := range cs {
		col = append(col, float64(c.collect))
		bld = append(bld, float64(c.build))
		al = append(al, float64(c.buildAllocs))
	}
	return collectCost{collect: time.Duration(median(col)), build: time.Duration(median(bld)), buildAllocs: uint64(median(al))}
}

// noServeLayers reports the serve-only layers as zero on the explore
// workloads, which bypass them.
func noServeLayers(rep *report) {
	for _, l := range []struct{ name, unit string }{
		{"trace.decode_ms", "ms"}, {"serve.upload_ms", "ms"}, {"serve.cache_hit_pct", "%"},
		{"serve.predict_cached_ms", "ms"}, {"serve.predict_unique_ms", "ms"}, {"serve.coalesced", "count"},
		{"serve.rejected", "count"}, {"serve.evictions", "count"}, {"load.late_p99_ms", "ms"},
		{"serve.server_p99_ms", "ms"},
	} {
		rep.layer(l.name, l.unit, 0)
	}
}
