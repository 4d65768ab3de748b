package main

import (
	"math/rand"

	"fastmatch/internal/graph"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

// query is one request body the schedule can send.
type query struct {
	Name    string
	Pattern string
	Limit   int
}

// spec describes one workload: its dataset, how the database is opened,
// what is sent to it, and why it exists. Names are fixed; later issues cite
// them.
type spec struct {
	name string
	why  string
	// skew selects the power-law generator; otherwise the XMark rung.
	skew  bool
	nodes int
	// poolBytes is passed to gdb at build; 0 keeps the shipped 1 MB default.
	poolBytes int
	// fileBacked builds into a page file, closes it and serves the
	// reopened database, as fgmgen + fgmserve -db would.
	fileBacked bool
	// writer runs the paced insert/delete client beside the readers.
	writer  bool
	queries func() []query
}

const (
	xmarkNodes = 100000 // the XMark "100M" rung
	skewNodes  = 20000
	largePool  = 64 << 20 // holds the whole 100k-node index: zero misses
	naiveNodes = 2000     // size of the copy checked against the naive matcher
)

var specs = []spec{
	{
		name:      "read_pipeline",
		why:       "tier-3 read path: rjoin operators and gdb.Snap reads do about 85% of the work, data fits the pool",
		nodes:     xmarkNodes,
		poolBytes: largePool,
		queries:   pipelineQueries,
	},
	{
		name:      "read_fastpath",
		why:       "tier 1/2 only: HTTP decode, admission, plan cache, Snap memos and JSON encode dominate; operators idle",
		nodes:     xmarkNodes,
		poolBytes: largePool,
		queries:   fastpathQueries,
	},
	{
		name:       "read_smallpool",
		why:        "read_pipeline's queries on a file-backed database with the shipped 1 MB pool: isolates BufferPool and FilePager",
		nodes:      xmarkNodes,
		fileBacked: true,
		queries:    pipelineQueries,
	},
	{
		name:      "mixed_rw",
		why:       "read_pipeline beside a paced writer: every publish is a new epoch, so plan cache, memos and CoW pages are rebuilt on the read path",
		nodes:     xmarkNodes,
		poolBytes: largePool,
		writer:    true,
		queries:   pipelineQueries,
	},
	{
		name:      "read_skew",
		why:       "cyclic patterns on a power-law DAG: hub skew is where WCOJ, dp vs dps and reach backends are predicted to diverge",
		skew:      true,
		nodes:     skewNodes,
		poolBytes: largePool,
		queries:   skewQueries,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// generate builds the workload's data graph at the given size.
func (s spec) generate(seed int64, nodes int) *graph.Graph {
	if s.skew {
		return powerLawDAG(seed, nodes)
	}
	return xmark.Generate(xmark.Config{Nodes: nodes, Seed: seed}).Graph
}

// pipelineQueries is the paper's batteries that all plan to tier 3: paths,
// trees, the 4-node graph patterns and the cyclic set.
func pipelineQueries() []query {
	var qs []query
	for _, set := range [][]workload.Workload{
		workload.Paths(), workload.Trees(), workload.Graphs4B(), workload.Cyclic(),
	} {
		for _, w := range set {
			qs = append(qs, query{Name: w.Name, Pattern: w.Pattern.String()})
		}
	}
	return qs
}

// fastpathQueries are answered from the index alone (tier 1) or proven
// empty by the fan signature (tier 2).
func fastpathQueries() []query {
	return []query{
		{Name: "F1", Pattern: "site->name"},
		{Name: "F2", Pattern: "site->description"},
		{Name: "F3", Pattern: "open_auction->name"},
		{Name: "F4", Pattern: "person->profile"},
		{Name: "F5-point", Pattern: "site->samerica"},
		{Name: "F6-impossible", Pattern: "categories->site"},
		{Name: "F7-limit", Pattern: "site->name; site->description", Limit: 10000},
	}
}

func skewQueries() []query {
	return []query{
		{Name: "S1-triangle", Pattern: "L3->L1; L1->L0; L3->L0"},
		{Name: "S2-triangle", Pattern: "L5->L2; L2->L0; L5->L0"},
		{Name: "S3-triangle", Pattern: "L6->L4; L4->L2; L6->L2"},
		{Name: "S4-diamond", Pattern: "L4->L2; L4->L3; L2->L1; L3->L1"},
		{Name: "S5-diamond", Pattern: "L7->L5; L7->L6; L5->L3; L6->L3"},
		{Name: "S6-path", Pattern: "L2->L1; L1->L0"},
		{Name: "S7-tailed", Pattern: "L9->L6; L6->L4; L9->L4; L4->L8"},
	}
}

// schedule returns the order in which a client sends the n queries in one
// cycle. Every cycle of every client is shuffled afresh from the seed: the
// two clients then overlap a different pair of queries each time, and a run
// averages over pairings where a single fixed permutation would measure one.
// (One permutation walked from two offsets moved read_pipeline's qps by 30%
// between seeds, against 10% between runs of one seed.)
func schedule(seed int64, client, cycle, n int) []int {
	return rand.New(rand.NewSource(seed<<20 ^ int64(cycle)<<4 ^ int64(client) ^ 0x5ced)).Perm(n)
}

// writeBatches returns the writer's fixed schedule: count batches of size
// edges, none of which is a self-loop, present in g, or repeated. Inserting
// then deleting a batch therefore restores g exactly.
func writeBatches(seed int64, g *graph.Graph, count, size int) [][][2]graph.NodeID {
	r := rand.New(rand.NewSource(seed ^ 0x3d6e))
	seen := make(map[[2]graph.NodeID]bool)
	batches := make([][][2]graph.NodeID, count)
	for i := range batches {
		for len(batches[i]) < size {
			e := [2]graph.NodeID{graph.NodeID(r.Intn(g.NumNodes())), graph.NodeID(r.Intn(g.NumNodes()))}
			if e[0] == e[1] || seen[e] || hasEdge(g, e[0], e[1]) {
				continue
			}
			seen[e] = true
			batches[i] = append(batches[i], e)
		}
	}
	return batches
}

func hasEdge(g *graph.Graph, u, v graph.NodeID) bool {
	for _, w := range g.Successors(u) {
		if w == v {
			return true
		}
	}
	return false
}
