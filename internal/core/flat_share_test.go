package core_test

import (
	"sync"
	"testing"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/sweep"
)

// buildGraph profiles a zoo model and builds its dependency graph.
func buildGraph(t *testing.T, name string) *core.Graph {
	t.Helper()
	model, err := dnn.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := framework.Run(framework.Config{Model: model, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFlatViewSharedAcrossBindings checks that the flat view is built
// once per baseline and shared by everything bound to it: eight
// concurrent overlays, a four-worker sweep pool, and repeated fresh
// patches (timing-only and structural) all simulate over the view the
// first simulation memoized, and none of them rebuilds or drops it.
func TestFlatViewSharedAcrossBindings(t *testing.T) {
	g := buildGraph(t, "resnet50")
	if core.FlatViewOf(g) != nil {
		t.Fatal("flat view built before the first simulation")
	}
	if _, err := g.Simulate(); err != nil {
		t.Fatal(err)
	}
	view := core.FlatViewOf(g)
	if view == nil {
		t.Fatal("Simulate did not memoize a flat view")
	}
	gpu := g.Select(core.OnGPUPred)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := core.NewOverlay(g)
			for _, task := range gpu[i:] {
				o.ScaleDuration(task, 0.5)
			}
			if _, err := o.Simulate(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var scenarios []sweep.Scenario
	for i := 1; i <= 16; i++ {
		factor := float64(i) / 16
		scenarios = append(scenarios, sweep.Scenario{ScaleTransform: func(o *core.Overlay) error {
			for _, task := range gpu {
				o.ScaleDuration(task, factor)
			}
			return nil
		}})
	}
	if _, err := sweep.NewPool(4).Run(g, scenarios, sweep.Workers(4), sweep.FailFast()); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		p := core.NewPatch(g)
		p.SetDuration(gpu[i], 1)
		if i%2 == 1 {
			if err := p.AddDependency(gpu[i], gpu[len(gpu)-1-i], core.DepCustom); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Simulate(); err != nil {
			t.Fatal(err)
		}
	}

	if core.FlatViewOf(g) != view {
		t.Fatal("the baseline's flat view was rebuilt or dropped by a binding")
	}
}
