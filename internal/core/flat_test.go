package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"daydream/internal/trace"
)

// assertMatchesReference fails unless got agrees with the seed-semantics
// reference simulation of g exactly: makespan, every task's start, and
// the ThreadEnd map entry for entry (same keys, same values).
func assertMatchesReference(t *testing.T, what string, g *Graph, got *SimResult) {
	t.Helper()
	want, err := referenceSimulate(g)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("%s: makespan %v, reference %v", what, got.Makespan, want.Makespan)
	}
	for _, task := range g.Tasks() {
		if got.Start[task.ID] != want.Start[task.ID] {
			t.Fatalf("%s: task %v starts at %v, reference %v", what, task, got.Start[task.ID], want.Start[task.ID])
		}
	}
	if len(got.ThreadEnd) != len(want.ThreadEnd) {
		t.Fatalf("%s: %d thread ends, reference %d", what, len(got.ThreadEnd), len(want.ThreadEnd))
	}
	for tid, end := range want.ThreadEnd {
		if e, ok := got.ThreadEnd[tid]; !ok || e != end {
			t.Fatalf("%s: thread %v ends at %v (present %v), reference %v", what, tid, e, ok, end)
		}
	}
}

// randomOverlayEdits overlays random durations, gaps and priorities on
// a random subset of g's tasks, writing the same values into the
// matching tasks of mirror (a clone of g), so simulating mirror is the
// overlay's reference.
func randomOverlayEdits(rng *rand.Rand, o *Overlay, g, mirror *Graph) {
	for _, task := range g.Tasks() {
		m := mirror.Task(task.ID)
		switch rng.Intn(4) {
		case 0:
			d := time.Duration(rng.Intn(5000)) * time.Microsecond
			o.SetDuration(task, d)
			m.Duration = d
		case 1:
			d := time.Duration(rng.Intn(800)) * time.Microsecond
			o.SetGap(task, d)
			m.Gap = d
		case 2:
			p := rng.Intn(10) - 5
			o.SetPriority(task, p)
			m.Priority = p
		}
	}
}

// randomMutation applies one structural mutator, chosen at random, to g
// and returns its name. Every mutator keeps g acyclic.
func randomMutation(t *testing.T, rng *rand.Rand, g *Graph) string {
	t.Helper()
	tasks := g.Tasks()
	pick := func() *Task { return tasks[rng.Intn(len(tasks))] }
	fresh := func(anchor *Task) *Task {
		return g.NewTask("new", kindFor(anchor.Thread), anchor.Thread, time.Duration(rng.Intn(3000))*time.Microsecond)
	}
	switch rng.Intn(6) {
	case 0:
		a, b := pick(), pick()
		if a == b || g.AddDependency(a, b, DepCustom) != nil {
			return "AddDependency(skipped)"
		}
		if g.Validate() != nil {
			// The edge closed a cycle: take it back out, which is
			// itself the RemoveDependency mutator.
			if !g.RemoveDependency(a, b) {
				t.Fatal("RemoveDependency lost the edge AddDependency added")
			}
		}
		return "AddDependency"
	case 1:
		for _, a := range tasks {
			if len(a.children) > 0 {
				g.RemoveDependency(a, a.children[rng.Intn(len(a.children))])
				return "RemoveDependency"
			}
		}
		return "RemoveDependency(none)"
	case 2:
		anchor := pick()
		g.AppendTask(fresh(anchor))
		return "NewTask+AppendTask"
	case 3:
		anchor := pick()
		if err := g.InsertAfter(anchor, fresh(anchor)); err != nil {
			t.Fatal(err)
		}
		return "NewTask+InsertAfter"
	case 4:
		anchor := pick()
		if err := g.InsertBefore(anchor, fresh(anchor)); err != nil {
			t.Fatal(err)
		}
		return "NewTask+InsertBefore"
	default:
		if len(tasks) > 1 {
			g.Remove(pick())
		}
		return "Remove"
	}
}

// TestFlatKernelMatchesReferenceOnRandomDAGs is the differential test of
// the flat simulation kernel: over random graphs, Graph.Simulate and an
// Overlay with random timing edits must match the reference simulator
// exactly, and so must Graph.Simulate after every structural mutator
// applied to an already-simulated graph — which pins the invalidation
// of the memoized flat view.
func TestFlatKernelMatchesReferenceOnRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng)
		scratch := NewSimScratch()
		got, err := g.Simulate(WithScratch(scratch))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertMatchesReference(t, "graph", g, got)

		mirror := g.Clone()
		o := NewOverlay(g)
		randomOverlayEdits(rng, o, g, mirror)
		got, err = o.Simulate(WithScratch(scratch))
		if err != nil {
			t.Fatalf("seed %d: overlay: %v", seed, err)
		}
		assertMatchesReference(t, "overlay", mirror, got)

		for i := 0; i < 8; i++ {
			if g.flatIdx.Load() == nil {
				t.Fatalf("seed %d: no flat view memoized after Simulate", seed)
			}
			what := randomMutation(t, rng, g)
			got, err = g.Simulate(WithScratch(scratch))
			if g.Validate() != nil {
				// A removed sequence edge can let a later mutation
				// close a cycle: the stall must name exactly the tasks
				// the reference cannot order either.
				assertStallMatchesCycle(t, fmt.Sprintf("seed %d: after %s", seed, what), g, err)
				return true
			}
			if err != nil {
				t.Fatalf("seed %d: after %s: %v", seed, what, err)
			}
			assertMatchesReference(t, what, g, got)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMutatorsDropFlatView checks each structural mutator individually:
// after it runs, the memo is empty, whatever the mutation changed.
func TestMutatorsDropFlatView(t *testing.T) {
	mutators := map[string]func(g *Graph, ts []*Task, x *Task){
		"NewTask":      func(g *Graph, ts []*Task, x *Task) { g.NewTask("y", trace.KindKernel, Stream(7), 1) },
		"AppendTask":   func(g *Graph, ts []*Task, x *Task) { g.AppendTask(x) }, // first task of its thread: no edge
		"InsertAfter":  func(g *Graph, ts []*Task, x *Task) { _ = g.InsertAfter(ts[0], x) },
		"InsertBefore": func(g *Graph, ts []*Task, x *Task) { _ = g.InsertBefore(ts[0], x) },
		"AddDependency": func(g *Graph, ts []*Task, x *Task) {
			_ = g.AddDependency(ts[0], ts[len(ts)-1], DepCustom)
		},
		"RemoveDependency": func(g *Graph, ts []*Task, x *Task) {
			for _, a := range ts {
				if len(a.children) > 0 {
					g.RemoveDependency(a, a.children[0])
					return
				}
			}
		},
		"Remove": func(g *Graph, ts []*Task, x *Task) { g.Remove(ts[1]) },
	}
	for name, mutate := range mutators {
		g := randomDAG(rand.New(rand.NewSource(7)))
		ts := g.Tasks()
		// x is allocated but not yet placed on a thread.
		x := g.NewTask("x", trace.KindKernel, Stream(9), 1)
		g.flat()
		mutate(g, ts, x)
		if g.flatIdx.Load() != nil {
			t.Errorf("%s left the flat view memoized", name)
		}
	}
}

// assertStallMatchesCycle fails unless err is a StallError whose
// blocked set is exactly the members of the CycleError g.Validate
// reports: the cycle's tasks plus everything downstream of them.
func assertStallMatchesCycle(t *testing.T, what string, g *Graph, err error) {
	t.Helper()
	var cyc *CycleError
	if verr := g.Validate(); !errors.As(verr, &cyc) {
		t.Fatalf("%s: Validate = %v, want a CycleError", what, verr)
	}
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("%s: err = %v, want a StallError", what, err)
	}
	if !slices.Equal(stall.Blocked, cyc.Members) {
		t.Fatalf("%s: blocked %v, cycle members %v", what, stall.Blocked, cyc.Members)
	}
	if stall.Live != g.NumTasks() || stall.Executed != g.NumTasks()-len(cyc.Members) {
		t.Fatalf("%s: executed %d of %d", what, stall.Executed, stall.Live)
	}
}

// TestFlatKernelStallMatchesCycle checks that a cyclic graph still
// fails with a StallError whose blocked set is exactly the tasks
// Kahn's algorithm cannot order — through Graph.Simulate and through an
// Overlay alike.
func TestFlatKernelStallMatchesCycle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		g := randomDAG(rand.New(rand.NewSource(seed)))
		var u *Task
		for _, task := range g.Tasks() {
			if len(task.children) > 0 {
				u = task
				break
			}
		}
		if u == nil {
			continue
		}
		g.flat() // the back edge must invalidate a built view
		if err := g.AddDependency(u.children[0], u, DepCustom); err != nil {
			t.Fatal(err)
		}
		o := NewOverlay(g)
		o.SetDuration(u, 1)
		for what, sim := range map[string]func() (*SimResult, error){
			"graph":   func() (*SimResult, error) { return g.Simulate() },
			"overlay": func() (*SimResult, error) { return o.Simulate() },
		} {
			_, err := sim()
			assertStallMatchesCycle(t, fmt.Sprintf("seed %d: %s", seed, what), g, err)
		}
	}
}

// TestWarmSimulateAllocs pins the steady state of both default-policy
// entry points: with a reused scratch and result buffer, a warm
// Graph.Simulate or Overlay.Simulate allocates only its options record.
func TestWarmSimulateAllocs(t *testing.T) {
	g := modelGraph(t, "resnet50")
	opts := []SimOption{WithScratch(NewSimScratch()), WithResultBuffer(&SimResult{})}
	o := NewOverlay(g)
	ts := g.Tasks()
	o.SetDuration(ts[3], 7)
	o.SetPriority(ts[5], 3)
	for name, sim := range map[string]func() (*SimResult, error){
		"Graph":   func() (*SimResult, error) { return g.Simulate(opts...) },
		"Overlay": func() (*SimResult, error) { return o.Simulate(opts...) },
	} {
		if _, err := sim(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() { _, _ = sim() }); got > 1 {
			t.Errorf("warm %s.Simulate: %v allocs, want at most 1", name, got)
		}
	}
}
