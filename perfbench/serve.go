package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"daydream"
	"daydream/internal/core"
	"daydream/internal/framework"
	"daydream/internal/serve"
	"daydream/internal/sweep"
	"daydream/internal/trace"
	"daydream/internal/whatif"
	"daydream/internal/xpu"
)

// serve-mixed: an open loop at a fixed offered rate against an
// in-process prediction server on a loopback listener, driven over
// serveConns keep-alive connections from this one process.
const (
	serveRate         = 150 // offered requests per second, about half what 2 cores sustain
	serveConns        = 2
	uploadEvery       = 20 // every 20th request uploads a new trace
	serveMaxBaselines = 6  // hot baselines plus the 4 newest uploads stay resident
	cachedShare       = 0.5
)

// Request classes of the mix.
const (
	kindCached = iota // a hot question, answered from the prediction cache
	kindUnique        // a question with never-seen params: a real simulation
	kindUpload        // a new trace: decode, build, validate, simulate, insert
)

// serveReq is one scheduled request with its expected answer.
type serveReq struct {
	kind  int
	base  int // hot baseline index (predicts), upload model index (uploads)
	path  string
	body  []byte
	due   time.Duration
	want  int64 // predicted_ns, or baseline_ns for uploads
	tasks int   // uploads: expected task count
	q     *question
}

// serveOutcome is one request's timing, measured from its due time.
type serveOutcome struct {
	late, latency, service time.Duration
	tier                   string
	cached, ok             bool
}

// hotPredict is a predict of the hot set, in both the wire form and
// the library form.
type hotPredict struct {
	expr string
	wire serve.Params
	lib  whatif.OptParams
	// truth is the ground-truth configuration, nil when none exists.
	truth func(framework.Config) framework.Config
}

func hotSet(s *baseSpec) []hotPredict {
	hs := []hotPredict{
		{expr: "amp", truth: truthAMP},
		{expr: "upgrade",
			wire:  serve.Params{FromDevice: "2080ti", ToDevice: "v100"},
			lib:   whatif.OptParams{FromDevice: "2080ti", ToDevice: "v100"},
			truth: truthDevice(xpu.V100())},
		{expr: "pipeline:2x4:1f1b"},
	}
	if isAdam(s) {
		hs = append(hs, hotPredict{expr: "fusedadam", truth: truthFusedAdam}, hotPredict{expr: "amp+fusedadam", truth: truthAMPFusedAdam})
	} else {
		hs = append(hs, hotPredict{expr: "reconbn", truth: truthReconBN})
	}
	return hs
}

// uploadModels are the models whose fresh traces the mix uploads, of
// differing sizes (about 1.3k and 1.8k tasks). Larger traces would put
// the latency p99 inside a few dozen slow uploads per run, where it is
// no longer steady.
var uploadModels = []string{"gnmt", "resnet50"}

func runServeMixed(cfg runConfig) (*report, error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 0x73657276))
	rep := &report{}
	hot := []*baseSpec{zooSpec("resnet50"), zooSpec("transformer")}

	// Inputs and references, outside all timing: the hot traces, their
	// graphs built from the same bytes the server receives, and every
	// hot question's reference and ground truth.
	var (
		hotBases []*baseline
		hotQs    [][]*question
		allHot   []*question
	)
	for bi, s := range hot {
		body, err := collectJSON(s.cfg)
		if err != nil {
			return nil, err
		}
		_, g, err := core.LoadGraph(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hotBases = append(hotBases, &baseline{spec: s, g: g, pool: sweep.NewPool(1)})
		var qs []*question
		for _, h := range hotSet(s) {
			q := registryQ(s.name+"/"+h.expr, bi, h.expr, h.lib, h.truth)
			q.wire = h.wire
			qs = append(qs, q)
		}
		hotQs = append(hotQs, qs)
		allHot = append(allHot, qs...)
	}
	if err := prepareReferences(allHot, hotBases); err != nil {
		return nil, err
	}

	measure := cfg.measure
	if cfg.traced {
		measure /= 2
	}
	reqs, err := schedule(rng, cfg.seed, measure, hot, hotQs, hotBases)
	if err != nil {
		return nil, err
	}
	// The benchmark's own live data — the hot graphs, every request's
	// body and expected answer, the outcome slots — is in place before
	// the first set-up; peak_heap_mb reports the live heap above it.
	outs := make([]serveOutcome, len(reqs))
	runtime.GC()
	ownHeapMB := liveHeapMB()

	// Set-up: fresh state to answerable — hot traces collected and
	// encoded, server started, hot traces uploaded, and one cold pass
	// over the hot set — timed several times; the last is measured.
	var (
		srv        *server
		ids        []string
		setupSecs  []float64
		setupCosts []collectCost
	)
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.close()
		}
		runtime.GC()
		t0 := time.Now()
		var cost collectCost
		srv, ids, cost, err = setupServer(hot, hotQs, rep)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		setupCosts = append(setupCosts, cost)
	}
	defer srv.close()
	for _, r := range reqs {
		if r.kind != kindUpload {
			r.path = "/v1/baselines/" + ids[r.base] + "/predict"
		}
	}

	ol, err := drive(srv, reqs, outs)
	if err != nil {
		return nil, err
	}
	// Two collections, as for ownHeapMB: the first only moves sync.Pool
	// contents (HTTP and JSON buffers) to the victim cache, where they
	// still count as live.
	runtime.GC()
	peakHeapMB := liveHeapMB() - ownHeapMB
	var lat []float64
	for _, o := range ol.outs {
		rep.check(o.ok)
		lat = append(lat, msOf(o.latency))
	}
	svc := serviceByKind(reqs, ol.outs)
	// Mix capacity: the answer rate one connection sustains back to
	// back, from each request group's median service time weighted by
	// its share of the mix — unlike the open loop's throughput, which is
	// only the offered rate. Groups are (class, baseline or upload
	// model): each is unimodal, where a class's median could fall in
	// the gap between two model sizes.
	groups := map[[2]int][]float64{}
	for i, o := range ol.outs {
		k := [2]int{reqs[i].kind, reqs[i].base}
		groups[k] = append(groups[k], msOf(o.service))
	}
	var perAnswerMS float64
	for _, g := range groups {
		perAnswerMS += float64(len(g)) / float64(len(reqs)) * median(g)
	}
	meanErr, maxErr, nTruth := predError(allHot)
	rep.e2e("setup_s", "s", median(setupSecs))
	rep.e2e("answers_per_s", "1/s", 1000/perAnswerMS)
	rep.e2e("latency_p50_ms", "ms", median(lat))
	rep.e2e("latency_p90_ms", "ms", quantile(lat, 0.90))
	rep.e2e("latency_p99_ms", "ms", quantile(lat, 0.99))
	rep.e2e("alloc_kb_per_answer", "KiB", ol.allocKB)
	rep.e2e("peak_heap_mb", "MiB", peakHeapMB)
	rep.e2e("pred_error_pct", "%", meanErr)
	rep.e2e("pred_error_max_pct", "%", maxErr)
	rep.note("set-up: %d fresh set-ups (collect+encode %d hot traces, start server, upload, cold pass over %d hot questions); setup_s is the median of %.4f s",
		setups, len(hot), len(allHot), setupSecs)
	rep.note("open loop: %d requests at %d/s over %d keep-alive connections in %.2f s (%d cached, %d unique, %d uploads); latency from each request's due time",
		len(reqs), serveRate, serveConns, ol.wall.Seconds(), len(svc[kindCached]), len(svc[kindUnique]), len(svc[kindUpload]))
	var byKind [3][]float64
	for i, o := range ol.outs {
		byKind[reqs[i].kind] = append(byKind[reqs[i].kind], msOf(o.latency))
	}
	for k, name := range [3]string{"cached", "unique", "upload"} {
		rep.note("latency of %s requests from due time: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms", name,
			quantile(byKind[k], 0.5), quantile(byKind[k], 0.9), quantile(byKind[k], 0.99))
	}
	rep.note("answers_per_s = 1 / Σ(group share × group median service time), groups = (class, baseline or upload model): the mix capacity of one connection, not the offered rate")
	rep.note("pred_error over the %d hot questions with framework ground truth; the pipeline question has none", nTruth)

	if cfg.traced {
		if err := traceServe(rep, cfg, reqs, ol, hotBases, allHot, medianCost(setupCosts)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// collectJSON profiles one iteration and encodes its trace as the JSON
// a client uploads.
func collectJSON(cfg framework.Config) ([]byte, error) {
	cfg.CollectTrace = true
	res, err := framework.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("collect %s: %w", cfg.Model.Name, err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// schedule generates the open loop's requests from the seed: one every
// 1/serveRate seconds for d, every uploadEvery-th an upload of a fresh
// trace, the rest predicts alternating between the hot baselines, each
// a cached hot question or a unique one with never-seen params. Every
// expected answer is computed here, outside timing.
func schedule(rng *rand.Rand, seed uint64, d time.Duration, hot []*baseSpec, hotQs [][]*question, hotBases []*baseline) ([]*serveReq, error) {
	n := int(d.Seconds() * serveRate)
	reqs := make([]*serveReq, 0, n)
	predicts := 0
	for i := 0; i < n; i++ {
		r := &serveReq{due: time.Duration(i) * time.Second / serveRate}
		switch {
		case i%uploadEvery == uploadEvery/2:
			u := len(reqs) / uploadEvery
			r.base = u % len(uploadModels)
			m := zooSpec(uploadModels[r.base])
			m.cfg.Seed = seed*1_000_003 + uint64(u) + 1
			body, err := collectJSON(m.cfg)
			if err != nil {
				return nil, err
			}
			_, g, err := core.LoadGraph(bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			res, err := g.Simulate()
			if err != nil {
				return nil, err
			}
			r.kind, r.path, r.body, r.want, r.tasks = kindUpload, "/v1/baselines", body, int64(res.Makespan), g.NumTasks()
		case rng.Float64() < cachedShare:
			r.base = predicts % len(hot)
			qs := hotQs[r.base]
			r.kind, r.q = kindCached, qs[rng.IntN(len(qs))]
		default:
			r.base = predicts % len(hot)
			r.kind, r.q = kindUnique, uniqueQ(rng, i, r.base, hot[r.base])
			_, v, err := daydream.Compare(hotBases[r.base].g, r.q.opt)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", r.q.id, err)
			}
			r.q.ref = answer{value: v}
		}
		if r.kind != kindUpload {
			predicts++
			body, err := json.Marshal(serve.PredictRequest{Opt: r.q.expr, Params: &r.q.wire})
			if err != nil {
				return nil, err
			}
			r.body, r.want = body, int64(r.q.ref.value)
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// uniqueQ is a predict no earlier request has asked: a scale of a
// kernel family by a fresh factor, or a kernel profile with a fresh
// duration (the request index makes the duration unique).
func uniqueQ(rng *rand.Rand, i, base int, s *baseSpec) *question {
	target := "sgemm"
	if rng.IntN(2) == 1 {
		target = "PointwiseApply"
		if s.name == "resnet50" {
			target = "scudnn"
		}
	}
	var q *question
	if rng.IntN(2) == 0 {
		f := 0.25 + rng.Float64()
		q = registryQ(fmt.Sprintf("%s/scale:%s×%s", s.name, target, strconv.FormatFloat(f, 'g', -1, 64)), base, "scale",
			whatif.OptParams{ScaleTarget: target, ScaleFactor: f}, nil)
		q.wire = serve.Params{ScaleTarget: target, ScaleFactor: f}
	} else {
		ns := int64(5000 + i)
		q = registryQ(fmt.Sprintf("%s/kprofile:%s=%dns", s.name, target, ns), base, "kprofile",
			whatif.OptParams{Profile: whatif.KernelProfile{target: time.Duration(ns)}}, nil)
		q.wire = serve.Params{ProfileNS: map[string]int64{target: ns}}
	}
	return q
}

// server is an in-process prediction server on a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{MaxBaselines: serveMaxBaselines})
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveConns}},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return s, nil
}

// close drains the server and waits for its accept loop to exit.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	_ = s.hs.Shutdown(ctx) // a drain that overruns is cut off by the deadline; nothing to report
	_ = s.srv.Shutdown(ctx)
	<-s.done
}

// post sends one request and decodes a 200 answer into out.
func post(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, data)
	}
	return json.Unmarshal(data, out)
}

func (s *server) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := s.client.Get(s.url + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// setupServer collects and encodes the hot traces, starts a server,
// uploads them and asks each hot question once, verifying every answer.
func setupServer(hot []*baseSpec, hotQs [][]*question, rep *report) (*server, []string, collectCost, error) {
	var cost collectCost
	var bodies [][]byte
	for _, s := range hot {
		t0 := time.Now()
		body, err := collectJSON(s.cfg)
		if err != nil {
			return nil, nil, cost, err
		}
		cost.collect += time.Since(t0)
		bodies = append(bodies, body)
	}
	srv, err := startServer()
	if err != nil {
		return nil, nil, cost, err
	}
	ids := make([]string, len(bodies))
	for i, body := range bodies {
		var up serve.UploadResponse
		if err := post(srv.client, srv.url+"/v1/baselines", body, &up); err != nil {
			srv.close()
			return nil, nil, cost, err
		}
		ids[i] = up.ID
	}
	for bi, qs := range hotQs {
		for _, q := range qs {
			body, err := json.Marshal(serve.PredictRequest{Opt: q.expr, Params: &q.wire})
			if err != nil {
				srv.close()
				return nil, nil, cost, err
			}
			var pr serve.PredictResponse
			err = post(srv.client, srv.url+"/v1/baselines/"+ids[bi]+"/predict", body, &pr)
			rep.check(err == nil && pr.PredictedNS == int64(q.ref.value))
		}
	}
	return srv, ids, cost, nil
}

// openLoop is one run of the open loop: per-request outcomes, the wall
// time, the GC share of CPU, KiB allocated per request, and the
// server's /statsz before and after.
type openLoop struct {
	outs     []serveOutcome
	wall     time.Duration
	gcPct    float64
	allocKB  float64
	st0, st1 serve.StatsResponse
}

// drive runs the open loop: a dispatcher releases each request at its
// due time to serveConns senders, each on its own keep-alive
// connection, and every answer is verified. outs holds one slot per
// request.
func drive(srv *server, reqs []*serveReq, outs []serveOutcome) (*openLoop, error) {
	ol := &openLoop{outs: outs}
	var err error
	if ol.st0, err = srv.stats(); err != nil {
		return nil, err
	}
	jobs := make(chan int, len(reqs)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	runtime.GC()
	rt0, alloc0 := readRuntime(), allocBytes()
	start := time.Now()
	for c := 0; c < serveConns; c++ {
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for i := range jobs {
				r := reqs[i]
				sent := time.Now()
				o := &ol.outs[i]
				if r.kind == kindUpload {
					var up serve.UploadResponse
					err := post(client, srv.url+r.path, r.body, &up)
					o.ok = err == nil && up.BaselineNS == r.want && up.Tasks == r.tasks
				} else {
					var pr serve.PredictResponse
					err := post(client, srv.url+r.path, r.body, &pr)
					o.ok = err == nil && pr.PredictedNS == r.want
					o.tier, o.cached = pr.Tier, pr.Cached
				}
				done := time.Now()
				due := start.Add(r.due)
				o.late, o.latency, o.service = sent.Sub(due), done.Sub(due), done.Sub(sent)
			}
		}()
	}
	for i, r := range reqs {
		time.Sleep(time.Until(start.Add(r.due)))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	ol.wall = time.Since(start)
	rt1, alloc1 := readRuntime(), allocBytes()
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		ol.gcPct = 100 * (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	ol.allocKB = float64(alloc1-alloc0) / 1024 / float64(len(reqs))
	if ol.st1, err = srv.stats(); err != nil {
		return nil, err
	}
	return ol, nil
}

// serviceByKind groups the service times (ms) by request class.
func serviceByKind(reqs []*serveReq, outs []serveOutcome) [3][]float64 {
	var svc [3][]float64
	for i, o := range outs {
		svc[reqs[i].kind] = append(svc[reqs[i].kind], msOf(o.service))
	}
	return svc
}

// traceServe adds serve-mixed's per-layer metrics: the upload path's
// layers timed on a sample of the uploaded traces, the predict path's
// through the same direct decomposition the explore workloads use (on
// local graphs built from the hot traces), and the server's own
// counters from /statsz.
func traceServe(rep *report, cfg runConfig, reqs []*serveReq, ol *openLoop, hotBases []*baseline, hotQs []*question, cost collectCost) error {
	rep.layer("framework.collect_ms", "ms", msOf(cost.collect))
	svc := serviceByKind(reqs, ol.outs)
	tierCount := map[string]int{}
	for i, o := range ol.outs {
		if reqs[i].kind != kindUpload && !o.cached && o.tier != "" {
			tierCount[tierOf(o.tier, reqs[i].q.opt)]++
		}
	}

	// Upload path: decode → build → validate → baseline simulate → index.
	var decode, build, allocs, validate, sim, index []float64
	for _, r := range reqs {
		if r.kind != kindUpload || len(decode) == 12 {
			continue
		}
		bd, bb, bv, bs, bi := forever, forever, forever, forever, forever
		var a uint64
		for k := 0; k < minPasses; k++ {
			t0 := time.Now()
			tr, err := trace.ReadJSON(bytes.NewReader(r.body))
			if err != nil {
				return err
			}
			t1 := time.Now()
			a0 := mallocs()
			t1a := time.Now()
			g, err := core.Build(tr)
			if err != nil {
				return err
			}
			core.MapLayers(g, tr.LayerSpans)
			t2 := time.Now()
			a = mallocs() - a0
			t2a := time.Now()
			if err := g.Validate(); err != nil {
				return err
			}
			t3 := time.Now()
			res, err := g.Simulate()
			if err != nil {
				return err
			}
			t4 := time.Now()
			g.LayerPhaseIndex()
			t5 := time.Now()
			rep.check(int64(res.Makespan) == r.want)
			bd, bb, bv, bs, bi = min(bd, t1.Sub(t0)), min(bb, t2.Sub(t1a)), min(bv, t3.Sub(t2a)), min(bs, t4.Sub(t3)), min(bi, t5.Sub(t4))
		}
		decode, build, validate = append(decode, msOf(bd)), append(build, msOf(bb)), append(validate, msOf(bv))
		sim, index, allocs = append(sim, msOf(bs)), append(index, msOf(bi)), append(allocs, float64(a))
	}
	rep.layer("trace.decode_ms", "ms", median(decode))
	rep.layer("core.build_ms", "ms", median(build))
	rep.layer("core.build_allocs", "count", median(allocs))
	uploadLayers := median(decode) + median(build) + median(validate) + median(sim) + median(index)

	// Predict path: the hot questions plus a sample of the unique ones,
	// decomposed on local graphs built from the same trace bytes.
	qs := append([]*question(nil), hotQs...)
	for _, r := range reqs {
		if r.kind == kindUnique && len(qs) < len(hotQs)+40 {
			qs = append(qs, r.q)
		}
	}
	d := cfg.measure / 2
	m := newMeasurement(len(qs))
	m.run(qs, hotBases, d/3, rep)
	m.finish(qs, hotBases, rep)
	items := make([]*traceItem, len(qs))
	for i, q := range qs {
		items[i] = &traceItem{q: q, b: hotBases[q.base], tier: m.tier[i], pool: m.best[i]}
	}
	lt, err := traceLayers(items, hotBases, d-d/3, rep)
	if err != nil {
		return err
	}
	var parseHot, uniqueLayers []float64
	for i, it := range items {
		if i < len(hotQs) {
			parseHot = append(parseHot, float64(it.parse))
		} else {
			uniqueLayers = append(uniqueLayers, float64(it.parse+it.apply+it.sim))
		}
	}
	layersMS := [3]float64{mean(parseHot) / 1e6, mean(uniqueLayers) / 1e6, uploadLayers}
	var e2e, covered float64
	for k := range svc {
		share := float64(len(svc[k])) / float64(len(reqs))
		e2e += share * median(svc[k])
		covered += share * layersMS[k]
	}
	lt.report(rep, layerOpts{gcCPUPct: ol.gcPct, wallPerS: float64(len(reqs)) / ol.wall.Seconds(), tiers: tierCount,
		residualPct: 100 * (e2e - covered) / e2e, baselineSimMS: median(sim)})

	st0, st1 := ol.st0, ol.st1
	hits, misses := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses
	hitPct := 0.0
	if hits+misses > 0 {
		hitPct = 100 * float64(hits) / float64(hits+misses)
	}
	var late []float64
	for _, o := range ol.outs {
		late = append(late, msOf(o.late))
	}
	rep.layer("serve.upload_ms", "ms", median(svc[kindUpload]))
	rep.layer("serve.cache_hit_pct", "%", hitPct)
	rep.layer("serve.predict_cached_ms", "ms", median(svc[kindCached]))
	rep.layer("serve.predict_unique_ms", "ms", median(svc[kindUnique]))
	rep.layer("serve.coalesced", "count", float64(st1.Coalesced-st0.Coalesced))
	rep.layer("serve.rejected", "count", float64(st1.Rejected-st0.Rejected))
	rep.layer("serve.evictions", "count", float64(st1.Evictions-st0.Evictions))
	rep.layer("load.late_p99_ms", "ms", quantile(late, 0.99))
	rep.layer("serve.server_p99_ms", "ms", msOf(time.Duration(st1.Endpoints["predict"].P99NS)))
	rep.note("serve.server_p99_ms is /statsz's predict p99 over its last 1024 requests; service times (serve.*_ms) are medians from send to response")
	return nil
}
