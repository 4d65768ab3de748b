// Package graph provides the directed node-labeled data-graph model used
// throughout the system: adjacency storage, strongly-connected-component
// condensation, topological ordering, traversals, and a naive reachability
// oracle used as ground truth in tests.
//
// A data graph G_D = (V, E, Σ, φ) follows Section 2 of the paper: V is a set
// of nodes, E a set of directed edges, Σ a set of node labels and φ assigns
// each node a label. Nodes are dense integer IDs in [0, NumNodes).
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node of a data graph. IDs are dense: every value in
// [0, Graph.NumNodes()) is a valid node.
type NodeID int32

// Label identifies a node label (an element of Σ). Labels are dense integer
// IDs managed by a LabelTable.
type Label int32

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// InvalidLabel is returned by lookups that find no label.
const InvalidLabel Label = -1

// LabelTable interns label names to dense Label IDs. The zero value is ready
// to use.
type LabelTable struct {
	names []string
	ids   map[string]Label
}

// Intern returns the Label for name, assigning a fresh ID on first use.
func (t *LabelTable) Intern(name string) Label {
	if t.ids == nil {
		t.ids = make(map[string]Label)
	}
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := Label(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// Lookup returns the Label for name, or InvalidLabel if name was never
// interned.
func (t *LabelTable) Lookup(name string) Label {
	if t.ids == nil {
		return InvalidLabel
	}
	if id, ok := t.ids[name]; ok {
		return id
	}
	return InvalidLabel
}

// Name returns the name of label id. It panics if id is out of range.
func (t *LabelTable) Name(id Label) string { return t.names[id] }

// Len returns the number of interned labels, |Σ|.
func (t *LabelTable) Len() int { return len(t.names) }

// Names returns a copy of all label names indexed by Label.
func (t *LabelTable) Names() []string {
	out := make([]string, len(t.names))
	copy(out, t.names)
	return out
}

// Graph is a directed node-labeled graph in compressed sparse row form.
// Build one with a Builder; a built Graph is immutable and safe for
// concurrent readers.
type Graph struct {
	labels *LabelTable

	nodeLabel []Label // nodeLabel[v] = φ(v)

	// Forward (successor) and reverse (predecessor) adjacency, one CSR
	// chunk per adjChunkSize node IDs, so a successor graph copies only
	// the chunks holding an endpoint (see WithEdges).
	fwd, rev []*adjChunk
	numEdges int

	// extent[l] lists the nodes with label l, sorted ascending: ext(X).
	extent [][]NodeID
}

// adjChunkBits sets the adjacency chunk size, as the database's decoded
// index chunks node IDs.
const (
	adjChunkBits = 8
	adjChunkSize = 1 << adjChunkBits
	adjChunkMask = adjChunkSize - 1
)

// adjChunk is the CSR adjacency of up to adjChunkSize consecutive node
// IDs: the node at index i has the ascending list adj[head[i]:head[i+1]].
type adjChunk struct {
	head []int32
	adj  []NodeID
}

// list returns the adjacency list of the node at index i.
func (c *adjChunk) list(i NodeID) []NodeID {
	lo, hi := c.head[i], c.head[i+1]
	return c.adj[lo:hi:hi]
}

// chunkCSR splits a whole-graph CSR (head, adj) into chunks. Each chunk's
// adjacency is a slice of adj; its heads are rebased to it.
func chunkCSR(head []int32, adj []NodeID) []*adjChunk {
	n := len(head) - 1
	chunks := make([]*adjChunk, (n+adjChunkSize-1)/adjChunkSize)
	heads := make([]int32, n+len(chunks))
	for ci := range chunks {
		lo, hi := ci*adjChunkSize, min((ci+1)*adjChunkSize, n)
		h := heads[: hi-lo+1 : hi-lo+1]
		heads = heads[hi-lo+1:]
		for i := range h {
			h[i] = head[lo+i] - head[lo]
		}
		chunks[ci] = &adjChunk{head: h, adj: adj[head[lo]:head[hi]:head[hi]]}
	}
	return chunks
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodeLabel) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.numEdges }

// Labels returns the graph's label table.
func (g *Graph) Labels() *LabelTable { return g.labels }

// LabelOf returns φ(v).
func (g *Graph) LabelOf(v NodeID) Label { return g.nodeLabel[v] }

// LabelNameOf returns the name of φ(v).
func (g *Graph) LabelNameOf(v NodeID) string { return g.labels.Name(g.nodeLabel[v]) }

// Successors returns the out-neighbours of v. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Successors(v NodeID) []NodeID {
	return g.fwd[v>>adjChunkBits].list(v & adjChunkMask)
}

// Predecessors returns the in-neighbours of v. The returned slice aliases
// the graph's internal storage and must not be modified.
func (g *Graph) Predecessors(v NodeID) []NodeID {
	return g.rev[v>>adjChunkBits].list(v & adjChunkMask)
}

// OutDegree returns the number of successors of v.
func (g *Graph) OutDegree(v NodeID) int { return len(g.Successors(v)) }

// InDegree returns the number of predecessors of v.
func (g *Graph) InDegree(v NodeID) int { return len(g.Predecessors(v)) }

// Extent returns ext(X): all nodes labeled l, sorted ascending. The returned
// slice aliases internal storage and must not be modified. It is nil when no
// node has label l.
func (g *Graph) Extent(l Label) []NodeID {
	if int(l) < 0 || int(l) >= len(g.extent) {
		return nil
	}
	return g.extent[l]
}

// ExtentSize returns |ext(X)| for label l.
func (g *Graph) ExtentSize(l Label) int { return len(g.Extent(l)) }

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d |Σ|=%d}", g.NumNodes(), g.NumEdges(), g.labels.Len())
}

// Builder incrementally constructs a Graph. Not safe for concurrent use.
type Builder struct {
	labels    LabelTable
	nodeLabel []Label
	srcs      []NodeID
	dsts      []NodeID
	dedup     bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// SetDedupEdges controls whether Build removes duplicate (u,v) edges.
// Off by default.
func (b *Builder) SetDedupEdges(on bool) { b.dedup = on }

// AddNode appends a node with the given label name and returns its ID.
func (b *Builder) AddNode(labelName string) NodeID {
	return b.AddNodeLabel(b.labels.Intern(labelName))
}

// AddNodeLabel appends a node with an already-interned label.
func (b *Builder) AddNodeLabel(l Label) NodeID {
	id := NodeID(len(b.nodeLabel))
	b.nodeLabel = append(b.nodeLabel, l)
	return id
}

// Intern interns a label name without adding a node.
func (b *Builder) Intern(labelName string) Label { return b.labels.Intern(labelName) }

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodeLabel) }

// AddEdge appends the directed edge u→v. Both endpoints must already exist.
func (b *Builder) AddEdge(u, v NodeID) {
	if int(u) >= len(b.nodeLabel) || int(v) >= len(b.nodeLabel) || u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) with %d nodes", u, v, len(b.nodeLabel)))
	}
	b.srcs = append(b.srcs, u)
	b.dsts = append(b.dsts, v)
}

// Build finalises the graph. The Builder may not be reused afterwards.
func (b *Builder) Build() *Graph {
	n := len(b.nodeLabel)
	srcs, dsts := b.srcs, b.dsts
	if b.dedup {
		srcs, dsts = dedupEdges(srcs, dsts)
	}
	g := &Graph{
		labels:    &b.labels,
		nodeLabel: b.nodeLabel,
		numEdges:  len(srcs),
	}
	g.fwd = chunkCSR(buildCSR(n, srcs, dsts))
	g.rev = chunkCSR(buildCSR(n, dsts, srcs))

	g.extent = make([][]NodeID, b.labels.Len())
	counts := make([]int, b.labels.Len())
	for _, l := range b.nodeLabel {
		counts[l]++
	}
	for l, c := range counts {
		g.extent[l] = make([]NodeID, 0, c)
	}
	for v, l := range b.nodeLabel {
		g.extent[l] = append(g.extent[l], NodeID(v))
	}
	return g
}

// buildCSR builds a CSR head/adjacency pair for edges from[i]→to[i], with
// each node's adjacency list sorted ascending.
func buildCSR(n int, from, to []NodeID) ([]int32, []NodeID) {
	head := make([]int32, n+1)
	for _, u := range from {
		head[u+1]++
	}
	for i := 1; i <= n; i++ {
		head[i] += head[i-1]
	}
	adj := make([]NodeID, len(from))
	cursor := make([]int32, n)
	for i, u := range from {
		adj[head[u]+cursor[u]] = to[i]
		cursor[u]++
	}
	for v := 0; v < n; v++ {
		seg := adj[head[v]:head[v+1]]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
	}
	return head, adj
}

// dedupEdges removes duplicate (u,v) pairs, preserving one copy each.
func dedupEdges(srcs, dsts []NodeID) ([]NodeID, []NodeID) {
	type edge struct{ u, v NodeID }
	seen := make(map[edge]struct{}, len(srcs))
	outS := srcs[:0]
	outD := dsts[:0]
	for i := range srcs {
		e := edge{srcs[i], dsts[i]}
		if _, ok := seen[e]; ok {
			continue
		}
		seen[e] = struct{}{}
		outS = append(outS, srcs[i])
		outD = append(outD, dsts[i])
	}
	return outS, outD
}
