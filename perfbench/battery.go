package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/trace"
	"daydream/internal/whatif"
	"daydream/internal/xpu"
)

// The two explore batteries. Questions with ground truth (amp,
// fusedadam, reconbn, upgrade, distributed, p3) use fixed parameters,
// so pred_error_* is identical on every run and seed; the seed draws
// the parameters of the questions the framework cannot execute (scale
// factors, kernel-profile durations, per-layer AMP layers, pipeline
// link rates, vDNN prefetch distances), which keeps every battery's
// size and tier mix the same across seeds.

// zooSpec is a zoo model at its default batch on the default PyTorch
// 2080 Ti configuration.
func zooSpec(name string) *baseSpec {
	m, err := dnn.ByName(name)
	if err != nil {
		panic(err) // fixed zoo names
	}
	return &baseSpec{name: name, cfg: framework.Config{Model: m}}
}

func isAdam(s *baseSpec) bool { return s.cfg.Model.Optimizer == dnn.Adam }

// Ground-truth configurations, derived from the baseline's.
func truthAMP(c framework.Config) framework.Config { c.Precision = xpu.FP16; return c }
func truthFusedAdam(c framework.Config) framework.Config {
	c.Optimizer, c.OptimizerSet = framework.OptFusedAdam, true
	return c
}
func truthAMPFusedAdam(c framework.Config) framework.Config { return truthFusedAdam(truthAMP(c)) }
func truthReconBN(c framework.Config) framework.Config      { c.ReconBatchnorm = true; return c }
func truthDevice(d *xpu.Device) func(framework.Config) framework.Config {
	return func(c framework.Config) framework.Config { c.Device = d; return c }
}

// timingBattery is explore-timing's battery: timing-only questions over
// small and large baselines, answered on the incremental and overlay
// tiers once the cold pass has warmed each pool.
func timingBattery(rng *rand.Rand) ([]*baseSpec, []*question) {
	specs := []*baseSpec{zooSpec("gnmt"), zooSpec("resnet50"), zooSpec("transformer"), zooSpec("bert-large")}
	var qs []*question
	for bi, s := range specs {
		add := func(q *question) { q.id = s.name + "/" + q.id; qs = append(qs, q) }
		add(registryQ("amp", bi, "amp", whatif.OptParams{}, truthAMP))
		if isAdam(s) {
			add(registryQ("fusedadam", bi, "fusedadam", whatif.OptParams{}, truthFusedAdam))
			add(registryQ("amp+fusedadam", bi, "amp+fusedadam", whatif.OptParams{}, truthAMPFusedAdam))
		} else {
			add(registryQ("reconbn", bi, "reconbn", whatif.OptParams{}, truthReconBN))
		}
		for _, to := range []*xpu.Device{xpu.P4000(), xpu.V100()} {
			p := whatif.OptParams{FromDevice: "2080ti", ToDevice: to.Name}
			add(registryQ("upgrade:"+to.Name, bi, "upgrade", p, truthDevice(to)))
		}
		for _, k := range []string{"sgemm", "PointwiseApply"} {
			d := time.Duration(5000 + rng.IntN(45000))
			p := whatif.OptParams{Profile: whatif.KernelProfile{k: d}}
			add(registryQ(fmt.Sprintf("kprofile:%s=%v", k, d), bi, "kprofile", p, nil))
		}
		targets := []string{"sgemm", "PointwiseApply"}
		if s.name == "resnet50" {
			targets[1] = "scudnn"
		}
		for _, k := range targets {
			for i := 0; i < 3; i++ {
				f := 0.25 + 0.5*float64(i) + 0.4*rng.Float64()
				p := whatif.OptParams{ScaleTarget: k, ScaleFactor: f}
				add(registryQ(fmt.Sprintf("scale:%s×%.6f", k, f), bi, "scale", p, nil))
			}
		}
		// Per-layer AMP, over the whole layer (its forward edits
		// invalidate most of the warm schedule: overlay tier) and over
		// its backward pass only (a late, small cone: incremental tier).
		layers := len(s.cfg.Model.Layers)
		const perLayer = 7
		for _, bwdOnly := range []bool{false, true} {
			off := rng.IntN(layers)
			for i := 0; i < perLayer; i++ {
				layer := (off + i*layers/perLayer) % layers
				id := fmt.Sprintf("amp-layer:%d", layer)
				if bwdOnly {
					id = fmt.Sprintf("amp-layer-bwd:%d", layer)
				}
				add(customQ(id, bi, layerAMP(layer, bwdOnly), false))
			}
		}
	}
	return specs, qs
}

// layerAMP applies Algorithm 3's mixed-precision scaling to one layer's
// GPU tasks only (the per-layer AMP attribution question), or to its
// backward-pass tasks only.
func layerAMP(layer int, bwdOnly bool) core.Optimization {
	return core.TimingOpt(fmt.Sprintf("amp-layer-%d-%t", layer, bwdOnly), func(o *core.Overlay) error {
		ix := o.Base().LayerPhaseIndex()
		compute := ix.GPUComputeBound()
		for i, u := range ix.GPUTasks() {
			if !u.HasLayer || u.LayerIndex != layer || (bwdOnly && u.Phase != trace.Backward) {
				continue
			}
			if compute[i] {
				o.SetDuration(u, o.Duration(u)/3)
			} else {
				o.SetDuration(u, o.Duration(u)/2)
			}
		}
		return nil
	}, nil)
}

// Cluster shapes for the distributed questions (machines × GPUs).
var clusterShapes = [][2]int{{2, 1}, {4, 1}, {2, 2}, {4, 2}}

// nccl is the PyTorch DDP ground truth for a topology, with the
// synchronization the paper's §6.5 adds before every NCCL call.
func nccl(topo comm.Topology) func(framework.Config) framework.Config {
	return func(c framework.Config) framework.Config {
		c.Cluster = &framework.Cluster{Topology: topo, Backend: framework.BackendNCCL, SyncBeforeComm: true}
		return c
	}
}

// parameterServer is the MXNet parameter-server ground truth, with or
// without P3.
func parameterServer(topo comm.Topology, p3 bool) func(framework.Config) framework.Config {
	return func(c framework.Config) framework.Config {
		c.Cluster = &framework.Cluster{Topology: topo, Backend: framework.BackendPS, P3: p3}
		return c
	}
}

// structuralBattery is explore-structural's battery: questions that add
// or remove tasks and edges, answered on the patch, scheduled and clone
// tiers, plus memory questions through the memory post-pass.
func structuralBattery(rng *rand.Rand) ([]*baseSpec, []*question) {
	p3Spec := &baseSpec{name: "resnet50-mxnet-p4000", cfg: framework.Config{
		Model: dnn.ResNet50(32), Device: xpu.P4000(), Dialect: framework.MXNet,
	}}
	specs := []*baseSpec{zooSpec("gnmt"), zooSpec("resnet50"), zooSpec("densenet121"), zooSpec("transformer"), p3Spec}
	const (
		gnmt = iota
		resnet
		densenet
		transformer
		p3Base
	)
	var qs []*question
	add := func(q *question) { q.id = specs[q.base].name + "/" + q.id; qs = append(qs, q) }

	for _, bi := range []int{gnmt, resnet, densenet, transformer} {
		for _, shape := range clusterShapes {
			for _, gbps := range []float64{10, 40} {
				p := whatif.OptParams{Topology: comm.Topology{
					Machines: shape[0], GPUsPerMachine: shape[1], NICBandwidth: comm.Gbps(gbps),
					IntraBandwidth: 11e9, StepLatency: 15 * time.Microsecond,
				}}
				add(registryQ(fmt.Sprintf("distributed:%dx%d@%.0fGbps", shape[0], shape[1], gbps), bi, "distributed", p, nccl(p.Topology)))
			}
		}
	}
	for _, bi := range []int{gnmt, resnet, densenet, transformer} {
		for _, stages := range []int{2, 4} {
			for _, micro := range []int{2, 4, 8} {
				for _, sched := range []string{whatif.Schedule1F1B, whatif.ScheduleGPipe} {
					link := float64(25 + rng.IntN(76))
					opt := whatif.OptPipeline(whatif.PipelineOptions{Stages: stages, Microbatches: micro, Schedule: sched, LinkGbps: link})
					add(customQ(fmt.Sprintf("pipeline:%dx%d:%s@%.0fGbps", stages, micro, sched, link), bi, opt, false))
				}
			}
		}
	}
	// P3 rides the clone tier; one question on bert-large would cost
	// more than the rest of the battery, so it is asked of ResNet-50's
	// MXNet profile only (the paper's Figure 10 setup).
	for _, gbps := range []float64{1, 2, 4, 6, 8} {
		topo := comm.Topology{Machines: 4, GPUsPerMachine: 1, NICBandwidth: comm.Gbps(gbps),
			IntraBandwidth: 11e9, StepLatency: 40 * time.Microsecond}
		add(registryQ(fmt.Sprintf("p3@%.0fGbps", gbps), p3Base, "p3", whatif.OptParams{Topology: topo}, parameterServer(topo, true)))
		add(registryQ(fmt.Sprintf("ps-fifo@%.0fGbps", gbps), p3Base, "p3", whatif.OptParams{Topology: topo, SliceBytes: -1}, parameterServer(topo, false)))
	}
	// Memory-footprint optimizations, only where they apply: vDNN on
	// the convolutional models, Gist on those plus the Transformer.
	for _, bi := range []int{resnet, densenet} {
		for i := 0; i < 3; i++ {
			d := 1 + 2*i + rng.IntN(2)
			add(customQ(fmt.Sprintf("vdnn:d=%d", d), bi, whatif.OptVDNN(whatif.VDNNOptions{PrefetchDistance: d}), true))
		}
	}
	for _, bi := range []int{resnet, densenet, transformer} {
		add(customQ("gist", bi, whatif.OptGist(whatif.GistOptions{}), true))
		add(customQ("gist-lossy", bi, whatif.OptGist(whatif.GistOptions{Lossy: true}), true))
	}
	for _, bi := range []int{resnet, densenet} {
		add(registryQ("reconbn-removal", bi, "reconbn-removal", whatif.OptParams{}, truthReconBN))
	}
	return specs, qs
}

// noTruthKinds lists the battery question kinds the framework cannot
// execute, so pred_error_* is computed over the rest.
const noTruthKinds = "vdnn, gist, pipeline, scale, kprofile, amp-layer"
