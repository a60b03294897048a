package main

import (
	"time"

	"daydream/internal/core"
	"daydream/internal/mem"
	"daydream/internal/whatif"
)

// The traced run splits each answer into its layers by calling each
// layer's public entry point in turn — parse (whatif.ParseStack), apply
// (Optimization.Apply into a core.Patch, or core.ApplyOptimization on a
// clone), simulate on the tier the sweep chose (IncrementalSim,
// Patch.Simulate, Graph.Simulate), the optimization's measure, and the
// memory post-pass (mem.ComputeProfile) — with a span around each
// call. The same sequence runs without spans too, so the spans' own
// cost shows as trace.overhead_pct; the sweep pool's answer time minus
// the summed layers is the residual, the framing no layer span covers.

// traceItem is one question's traced decomposition.
type traceItem struct {
	q    *question
	b    *baseline
	tier string        // tier the untraced answer rode
	pool time.Duration // fastest untraced answer through the pool

	// Fastest per-layer spans, and the fastest whole answer with and
	// without spans (parse is timed on its own, outside both).
	parse, apply, sim, post time.Duration
	spans, plain            time.Duration
	applyAllocs             uint64
	counted                 bool
	recomputed, tasks       int
}

// tracer owns the per-baseline state of the direct path: a patch and a
// warm incremental simulator per baseline, one scratch and one result
// buffer — the same reusable state a sweep worker holds.
type tracer struct {
	patch   map[*baseline]*core.Patch
	incr    map[*baseline]*core.IncrementalSim
	scratch *core.SimScratch
	buf     *core.SimResult
}

func newTracer(bases []*baseline) (*tracer, error) {
	tr := &tracer{
		patch:   map[*baseline]*core.Patch{},
		incr:    map[*baseline]*core.IncrementalSim{},
		scratch: core.NewSimScratch(),
		buf:     &core.SimResult{},
	}
	for _, b := range bases {
		tr.patch[b] = core.NewPatch(b.g)
		incr, err := core.NewIncrementalSim(b.g)
		if err != nil {
			return nil, err
		}
		tr.incr[b] = incr
	}
	return tr, nil
}

const forever = time.Duration(1<<63 - 1)

// run answers one item on the direct path, with a span around every
// layer call when traced. It returns the answer and the whole answer's
// time (parse excluded).
func (tr *tracer) run(it *traceItem, traced bool) (answer, time.Duration, error) {
	q, b := it.q, it.b
	opt := q.opt
	if traced && q.expr != "" {
		t0 := time.Now()
		o, err := whatif.ParseStack(q.expr, q.params)
		it.parse = min(it.parse, time.Since(t0))
		if err != nil {
			return answer{}, 0, err
		}
		opt = o
	}
	countAllocs := traced && !it.counted
	var apply, sim, post time.Duration
	start := time.Now()
	lap := start
	span := func() time.Duration {
		now := time.Now()
		d := now.Sub(lap)
		lap = now
		return d
	}
	doApply := func(f func() error) error {
		var a0 uint64
		if countAllocs {
			a0 = mallocs()
			lap = time.Now()
		}
		err := f()
		apply = span()
		if countAllocs {
			it.applyAllocs, it.counted = mallocs()-a0, true
			lap = time.Now()
		}
		return err
	}
	opts := []core.SimOption{core.WithScratch(tr.scratch), core.WithResultBuffer(tr.buf)}
	if s := core.OptScheduler(opt); s != nil {
		opts = append(opts, core.WithScheduler(s))
	}
	var (
		view core.TaskView
		res  *core.SimResult
		err  error
	)
	if it.tier == tierClone {
		c := b.g.Clone()
		sim += span()
		var g *core.Graph
		err = doApply(func() (e error) { g, e = core.ApplyOptimization(c, opt); return })
		if err == nil {
			view = g
			res, err = g.Simulate(opts...)
		}
		it.tasks = c.NumTasks()
	} else {
		p := tr.patch[b]
		p.Reset(b.g)
		err = doApply(func() error { return opt.Apply(p) })
		if err == nil {
			view = p
			if it.tier == tierIncremental {
				res, err = tr.incr[b].ReSimulate(p, opts...)
				it.recomputed = tr.incr[b].RecomputedTasks()
			} else {
				res, err = p.Simulate(opts...)
			}
		}
	}
	if err != nil {
		return answer{}, 0, err
	}
	a := answer{value: res.Makespan}
	if m := core.OptMeasure(opt); m != nil {
		if a.value, err = m(view, res); err != nil {
			return answer{}, 0, err
		}
	}
	sim += span()
	if q.viaMem {
		ann, err := mem.AnnotationOf(b.g)
		if err != nil {
			return answer{}, 0, err
		}
		prof, err := mem.ComputeProfile(view, res, ann, mem.MeasurersOf(opt)...)
		if err != nil {
			return answer{}, 0, err
		}
		a.peak = prof.MaxPeak()
		post = span()
	}
	total := time.Since(start)
	if traced {
		it.apply, it.sim, it.post = min(it.apply, apply), min(it.sim, sim), min(it.post, post)
		if it.tier == tierIncremental {
			it.tasks = it.recomputed
		} else if it.tier != tierClone {
			it.tasks = view.NumTasks()
		}
	}
	return a, total, nil
}

// layerTotals aggregates a traced decomposition.
type layerTotals struct {
	items       []*traceItem
	tr          *tracer
	baselineSim time.Duration
}

// traceLayers runs the direct path over the items, alternating the
// plain and the spanned form, until d has passed (at least minPasses
// passes); every answer is verified against its reference.
func traceLayers(items []*traceItem, bases []*baseline, d time.Duration, rep *report) (*layerTotals, error) {
	tr, err := newTracer(bases)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		it.parse, it.apply, it.sim, it.post, it.spans, it.plain = forever, forever, forever, forever, forever, forever
	}
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < d; pass++ {
		for _, it := range items {
			for _, traced := range [2]bool{pass%2 == 0, pass%2 != 0} {
				a, el, err := tr.run(it, traced)
				ok := err == nil && a == it.q.ref
				rep.check(ok)
				if !ok {
					continue
				}
				if traced {
					it.spans = min(it.spans, el)
				} else {
					it.plain = min(it.plain, el)
				}
			}
		}
	}
	lt := &layerTotals{items: items, tr: tr}
	for _, b := range bases {
		best := forever
		for i := 0; i < minPasses; i++ {
			t0 := time.Now()
			if _, err := b.g.Simulate(core.WithScratch(tr.scratch), core.WithResultBuffer(tr.buf)); err != nil {
				return nil, err
			}
			best = min(best, time.Since(t0))
		}
		lt.baselineSim += best
	}
	return lt, nil
}

// layerOpts carries what the decomposition cannot see itself: figures
// from the workload's untraced measurement, and for serve-mixed the
// tier counts of the server's answers, the request path's residual and
// the uploaded baselines' simulation time.
type layerOpts struct {
	gcCPUPct, wallPerS float64
	tiers              map[string]int // nil: count the decomposed questions' tiers
	residualPct        float64        // used when tiers is set
	baselineSimMS      float64        // used when tiers is set
}

// report adds the per-layer metrics of the decomposition.
func (lt *layerTotals) report(rep *report, o layerOpts) {
	var (
		parse, apply, allocs, tasks, post []float64
		recomputed                        []float64
		simBy                             = map[string][]float64{}
		count                             = map[string]int{}
		pool, plain, spans, layers        float64
	)
	clean := func(d time.Duration) float64 {
		if d == forever {
			return 0
		}
		return float64(d)
	}
	for _, it := range lt.items {
		count[it.tier]++
		if it.q.expr != "" {
			parse = append(parse, clean(it.parse))
		}
		apply = append(apply, clean(it.apply))
		allocs = append(allocs, float64(it.applyAllocs))
		tasks = append(tasks, float64(it.tasks))
		simBy[it.tier] = append(simBy[it.tier], clean(it.sim))
		if it.tier == tierIncremental {
			recomputed = append(recomputed, float64(it.recomputed))
		}
		if it.q.viaMem {
			post = append(post, clean(it.post))
		}
		pool += float64(it.pool)
		plain += clean(it.plain)
		spans += clean(it.spans)
		layers += clean(it.apply) + clean(it.sim) + clean(it.post)
	}
	var calls, fallbacks int
	for _, incr := range lt.tr.incr {
		st := incr.Stats()
		calls += st.Calls
		fallbacks += st.Fallbacks
	}
	n := float64(len(lt.items))
	rep.layer("whatif.parse_us", "us", mean(parse)/1e3)
	rep.layer("whatif.apply_ms", "ms", mean(apply)/1e6)
	rep.layer("whatif.apply_allocs", "count", mean(allocs))
	residualPct, baselineSimMS := 100*(pool-layers)/pool, msOf(lt.baselineSim)
	if o.tiers != nil {
		count, residualPct, baselineSimMS = o.tiers, o.residualPct, o.baselineSimMS
	}
	rep.layer("core.baseline_sim_ms", "ms", baselineSimMS)
	rep.layer("core.sim_incremental_us", "us", mean(simBy[tierIncremental])/1e3)
	rep.layer("core.incr_recomputed_tasks", "count", mean(recomputed))
	fallbackPct := 0.0
	if calls > 0 {
		fallbackPct = 100 * float64(fallbacks) / float64(calls)
	}
	rep.layer("core.incr_fallback_pct", "%", fallbackPct)
	rep.layer("core.sim_overlay_ms", "ms", mean(simBy[tierOverlay])/1e6)
	rep.layer("core.sim_patch_ms", "ms", mean(simBy[tierPatch])/1e6)
	rep.layer("core.sim_scheduled_ms", "ms", mean(simBy[tierScheduled])/1e6)
	rep.layer("core.sim_clone_ms", "ms", mean(simBy[tierClone])/1e6)
	rep.layer("mem.profile_ms", "ms", mean(post)/1e6)
	for _, t := range tiers {
		rep.layer("sweep.tier."+t, "count", float64(count[t]))
	}
	rep.layer("sweep.overhead_us", "us", (pool-plain)/n/1e3)
	rep.layer("core.tasks_per_answer", "count", mean(tasks))
	rep.layer("runtime.gc_cpu_pct", "%", o.gcCPUPct)
	rep.layer("load.wall_answers_per_s", "1/s", o.wallPerS)
	rep.layer("trace.residual_pct", "%", residualPct)
	rep.layer("trace.spans_answers_per_s", "1/s", n/(spans/1e9))
	rep.layer("trace.plain_answers_per_s", "1/s", n/(plain/1e9))
	rep.layer("trace.overhead_pct", "%", 100*(spans-plain)/plain)
	rep.note("traced decomposition of %d questions: per-layer figures are means of each question's fastest span; sweep.tier.* count battery questions by the tier their warm answer rode", len(lt.items))
	rep.note("trace.residual_pct = (sum of fastest pool answers − sum of fastest layer spans) / sum of fastest pool answers; trace.overhead_pct compares the direct path with and without spans")
}
