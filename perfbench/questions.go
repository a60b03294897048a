package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"daydream"
	"daydream/internal/core"
	"daydream/internal/framework"
	"daydream/internal/mem"
	"daydream/internal/serve"
	"daydream/internal/sweep"
	"daydream/internal/trace"
	"daydream/internal/whatif"
)

// baseSpec names one profiled baseline: a model collected under a
// framework configuration.
type baseSpec struct {
	name string
	cfg  framework.Config
}

// baseline is one collected and built baseline with its warm sweep
// pool. Each baseline keeps a pool of its own, so the pool worker's
// warm incremental schedule is never thrown away by a question about
// another baseline.
type baseline struct {
	spec *baseSpec
	tr   *trace.Trace
	g    *core.Graph
	pool *sweep.Pool
}

// collectCost is one baseline's set-up cost, split by layer.
type collectCost struct {
	collect, build time.Duration
	buildAllocs    uint64
}

func (c *collectCost) add(o collectCost) {
	c.collect += o.collect
	c.build += o.build
	c.buildAllocs += o.buildAllocs
}

// collectBaseline profiles one training iteration through the
// framework and builds its dependency graph (set-up phases 1–2).
func collectBaseline(s *baseSpec) (*baseline, collectCost, error) {
	var cost collectCost
	cfg := s.cfg
	cfg.CollectTrace = true
	t0 := time.Now()
	res, err := framework.Run(cfg)
	if err != nil {
		return nil, cost, fmt.Errorf("collect %s: %w", s.name, err)
	}
	t1 := time.Now()
	a0 := mallocs()
	g, err := core.Build(res.Trace)
	if err != nil {
		return nil, cost, fmt.Errorf("build %s: %w", s.name, err)
	}
	core.MapLayers(g, res.Trace.LayerSpans)
	cost.collect, cost.build, cost.buildAllocs = t1.Sub(t0), time.Since(t1), mallocs()-a0
	return &baseline{spec: s, tr: res.Trace, g: g, pool: sweep.NewPool(1)}, cost, nil
}

// question is one what-if asked of one baseline.
type question struct {
	id   string
	base int // index into the workload's baselines
	// expr and params are the registry form (whatif.ParseStack); expr
	// is empty for custom values built directly.
	expr   string
	params whatif.OptParams
	wire   serve.Params // params as a serve predict request carries them
	opt    core.Optimization
	// viaMem answers through the memory-aware pipeline
	// (mem.ProfileOpt): predicted time and peak memory.
	viaMem bool
	// truth derives the ground-truth framework configuration from the
	// baseline's; nil when the framework cannot execute the what-if.
	truth func(framework.Config) framework.Config

	ref answer        // reference answer, computed outside timing
	gt  time.Duration // ground-truth iteration time (truth != nil)
}

// answer is a prediction: iteration time, plus peak bytes for the
// memory-aware questions.
type answer struct {
	value time.Duration
	peak  int64
}

// registryQ builds a question from a registry stack expression.
func registryQ(id string, base int, expr string, p whatif.OptParams, truth func(framework.Config) framework.Config) *question {
	opt, err := whatif.ParseStack(expr, p)
	if err != nil {
		panic(fmt.Sprintf("battery question %s: %v", id, err)) // the batteries are fixed code
	}
	return &question{id: id, base: base, expr: expr, params: p, opt: opt, truth: truth}
}

// customQ builds a question from an optimization value.
func customQ(id string, base int, opt core.Optimization, viaMem bool) *question {
	return &question{id: id, base: base, opt: opt, viaMem: viaMem}
}

// prepareReferences computes every question's reference answer on a
// materialized clone of its baseline (daydream.Compare, or
// daydream.ProfileOptimization for memory-aware questions) and its
// ground truth through the framework, all outside timing.
func prepareReferences(qs []*question, bases []*baseline) error {
	for _, q := range qs {
		b := bases[q.base]
		c := b.g.Clone()
		if q.viaMem {
			v, prof, err := daydream.ProfileOptimization(c, q.opt)
			if err != nil {
				return fmt.Errorf("reference %s: %w", q.id, err)
			}
			q.ref = answer{value: v, peak: prof.MaxPeak()}
		} else {
			_, v, err := daydream.Compare(c, q.opt)
			if err != nil {
				return fmt.Errorf("reference %s: %w", q.id, err)
			}
			q.ref = answer{value: v}
		}
		if q.truth != nil {
			res, err := framework.Run(q.truth(b.spec.cfg))
			if err != nil {
				return fmt.Errorf("ground truth %s: %w", q.id, err)
			}
			q.gt = res.IterationTime
		}
	}
	return nil
}

// predError returns the mean and max |pred−truth|/truth in percent over
// the questions that have ground truth, and how many those are.
func predError(qs []*question) (meanPct, maxPct float64, n int) {
	var errs []float64
	for _, q := range qs {
		if q.truth == nil {
			continue
		}
		e := 100 * abs(float64(q.ref.value-q.gt)) / float64(q.gt)
		errs = append(errs, e)
		maxPct = max(maxPct, e)
	}
	return mean(errs), maxPct, len(errs)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Tiers an answer can ride. The sweep reports replay, incremental,
// overlay, patch and clone; a patch answer under a scheduling policy
// the optimization carries is counted as scheduled.
const (
	tierReplay      = sweep.TierReplay
	tierIncremental = sweep.TierIncremental
	tierOverlay     = sweep.TierOverlay
	tierPatch       = sweep.TierPatch
	tierScheduled   = "scheduled"
	tierClone       = sweep.TierClone
)

var tiers = []string{tierReplay, tierIncremental, tierOverlay, tierPatch, tierScheduled, tierClone}

func tierOf(sweepTier string, opt core.Optimization) string {
	if sweepTier == tierPatch && core.OptScheduler(opt) != nil {
		return tierScheduled
	}
	return sweepTier
}

// memTier is the tier mem.ProfileOpt evaluates a question on.
func memTier(opt core.Optimization) string {
	switch {
	case core.OptNeedsGraph(opt):
		return tierClone
	case core.OptScheduler(opt) != nil:
		return tierScheduled
	}
	return tierPatch
}

// ask answers one question the way a caller of the library would:
// through the baseline's warm sweep pool, or through the memory-aware
// pipeline for memory questions. It reports the tier the answer rode.
func ask(q *question, b *baseline) (answer, string, error) {
	if q.viaMem {
		v, prof, err := mem.ProfileOpt(b.g, q.opt)
		if err != nil {
			return answer{}, "", err
		}
		return answer{value: v, peak: prof.MaxPeak()}, memTier(q.opt), nil
	}
	rows, err := b.pool.Run(b.g, []sweep.Scenario{{Opt: q.opt}}, sweep.Workers(1))
	if err != nil {
		return answer{}, "", err
	}
	return answer{value: rows[0].Value}, tierOf(rows[0].Tier, q.opt), nil
}

// runtimeSample reads the runtime counters the benchmark reports.
type runtimeSample struct {
	liveBytes       uint64
	gcCPU, totalCPU float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSample {
	metrics.Read(rtSamples)
	return runtimeSample{
		liveBytes: rtSamples[0].Value.Uint64(),
		gcCPU:     rtSamples[1].Value.Float64(),
		totalCPU:  rtSamples[2].Value.Float64(),
	}
}

// liveHeapMB collects fully and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(readRuntime().liveBytes) / (1 << 20)
}

// mallocs and allocBytes read the exact cumulative allocation counters
// (runtime.ReadMemStats flushes every per-P cache, so the counts are
// exact; it stops the world briefly, so it stays outside timed calls).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
