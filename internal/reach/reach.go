// Package reach keeps the engine's 2-hop labeling (twohop.Compute) valid
// under edge inserts and deletes: Incremental repairs the labeling with the
// invariant u ⇝ v iff out(u) ∩ in(v) ≠ ∅ (full codes; the stored compact
// lists omit the node itself) and reports every changed entry as a
// LabelDelta, the stream the graph database applies to its base-table
// codes, cluster index and W-table.
//
// The repair never asks how the labeling was built, only that it is a
// valid 2-hop labeling, so a database reattached with its stored codes
// resumes maintenance whatever wrote them.
package reach

import (
	"fmt"
	"slices"

	"fastmatch/internal/graph"
	"fastmatch/internal/twohop"
)

// LabelDelta records one label entry changed by an incremental edge
// insert or delete: Center joined (Removed false) or left (Removed true)
// the compact L_out(Node) (Out true) or L_in(Node) (Out false). The delta
// set is exactly what an index built on top of the labeling (base-table
// codes, cluster index, W-table) must absorb to stay consistent.
type LabelDelta struct {
	Node    graph.NodeID
	Center  graph.NodeID
	Out     bool
	Removed bool
}

// Index, Options, Builder and Lookup are kept for benchmark/, which builds
// its labeling through them, until ROADMAP 2(c) lets it call twohop.Compute
// directly.

// Index is a built labeling: the engine's one cover.
type Index = *twohop.Cover

// Options is Builder.Build's argument; it has nothing to configure.
type Options struct{}

// Builder computes the engine's labeling.
type Builder struct{}

// Build computes the 2-hop cover of g, as gdb.Build does by default.
func (Builder) Build(g *graph.Graph, _ Options) Index {
	return twohop.Compute(g, twohop.Options{})
}

// Lookup returns the Builder for the empty name, the only one it accepts.
func Lookup(name string) (Builder, error) {
	if name != "" {
		return Builder{}, fmt.Errorf("reach: unknown labeling %q: the engine has one, named by the empty string", name)
	}
	return Builder{}, nil
}

// intersectSorted reports whether two ascending NodeID slices share an
// element.
func intersectSorted(a, b []graph.NodeID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// containsSorted reports whether the ascending slice holds x.
func containsSorted(a []graph.NodeID, x graph.NodeID) bool {
	_, found := slices.BinarySearch(a, x)
	return found
}
