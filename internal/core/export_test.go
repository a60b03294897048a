package core

// FlatViewOf exposes the graph's memoized flat view (nil when none is
// built) to the external test package, for identity comparisons.
func FlatViewOf(g *Graph) any {
	if v := g.flatIdx.Load(); v != nil {
		return v
	}
	return nil
}
