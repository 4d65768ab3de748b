// Package workload defines the query workloads of the paper's Section 6
// (Figure 4), instantiated with XMark schema labels: nine path patterns
// P1–P9 (3/4/5 nodes), nine tree patterns T1–T9, and two batteries of five
// graph patterns Q1–Q5 with |V_q| = 4 and |V_q| = 5 used in Figure 6.
// Every pattern is non-empty by construction on graphs from
// internal/xmark. Skew and PowerLawDAG are the cyclic patterns and the
// hub-skewed dataset of the served read_skew workload.
package workload

import (
	"fmt"
	"math/rand"

	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
)

// Workload names one benchmark pattern.
type Workload struct {
	Name    string
	Pattern *pattern.Pattern
}

func mk(name, spec string) Workload {
	return Workload{Name: name, Pattern: pattern.MustParse(spec)}
}

// Paths returns P1–P9: three 3-node, three 4-node, and three 5-node path
// patterns (Figure 4(a)/(c)/(h); Figure 5(a)).
func Paths() []Workload {
	return []Workload{
		mk("P1", "site->regions; regions->item"),
		mk("P2", "person->profile; profile->interest"),
		mk("P3", "open_auction->bidder; bidder->personref"),
		mk("P4", "site->regions; regions->item; item->incategory"),
		mk("P5", "site->people; people->person; person->address"),
		mk("P6", "open_auction->annotation; annotation->author; author->person"),
		mk("P7", "site->regions; regions->item; item->incategory; incategory->category"),
		mk("P8", "site->people; people->person; person->profile; profile->interest"),
		mk("P9", "open_auction->bidder; bidder->personref; personref->person; person->address"),
	}
}

// Trees returns T1–T9: tree (twig) patterns of the Figure 4(d)/(j)/(k)/(l)
// shapes (Figure 5(b)).
func Trees() []Workload {
	return []Workload{
		mk("T1", "item->name; item->incategory; incategory->category"),
		mk("T2", "person->address; person->profile; profile->interest"),
		mk("T3", "open_auction->bidder; open_auction->itemref; bidder->personref"),
		mk("T4", "site->regions; site->people; regions->item; people->person"),
		mk("T5", "item->mailbox; mailbox->mail; mail->from; mail->to"),
		mk("T6", "person->name; person->address; address->city; address->country"),
		mk("T7", "closed_auction->seller; closed_auction->itemref; itemref->item; item->incategory"),
		mk("T8", "site->open_auctions; open_auctions->open_auction; open_auction->annotation; open_auction->bidder"),
		mk("T9", "person->watches; person->profile; profile->interest; interest->category"),
	}
}

// Graphs4A returns Q1–Q5 with |V_q| = 4, multi-source confluence shapes
// (Figure 4(e); used for Figure 6(a)).
func Graphs4A() []Workload {
	return []Workload{
		mk("Q1", "open_auction->person; closed_auction->person; open_auction->item"),
		mk("Q2", "item->category; person->category; person->open_auction"),
		mk("Q3", "closed_auction->person; open_auction->person; person->category"),
		mk("Q4", "open_auction->item; closed_auction->item; item->category"),
		mk("Q5", "open_auction->item; open_auction->person; person->category"),
	}
}

// Graphs4B returns Q1–Q5 with |V_q| = 4 and four edges each — diamonds and
// triangles with reconvergent conditions (Figure 4(d) family; Figure 6(b)).
func Graphs4B() []Workload {
	return []Workload{
		mk("Q1", "site->item; site->person; item->category; person->category"),
		mk("Q2", "closed_auction->item; closed_auction->person; item->category; person->category"),
		mk("Q3", "open_auction->item; open_auction->person; item->category; person->category"),
		mk("Q4", "person->item; person->interest; item->category; interest->category"),
		mk("Q5", "person->open_auction; person->category; open_auction->item; item->category"),
	}
}

// Graphs5A returns Q1–Q5 with |V_q| = 5 and four edges (Figure 4(h)
// family; Figure 6(c)).
func Graphs5A() []Workload {
	return []Workload{
		mk("Q1", "site->open_auction; open_auction->item; open_auction->person; item->category"),
		mk("Q2", "open_auction->item; closed_auction->item; item->incategory; incategory->category"),
		mk("Q3", "site->person; person->open_auction; open_auction->item; item->category"),
		mk("Q4", "site->regions; regions->item; item->category; site->person"),
		mk("Q5", "closed_auction->person; open_auction->person; person->profile; profile->interest"),
	}
}

// Graphs5B returns Q1–Q5 with |V_q| = 5 and five edges (Figure 4(i)
// family; Figure 6(d)).
func Graphs5B() []Workload {
	return []Workload{
		mk("Q1", "item->category; person->category; closed_auction->item; closed_auction->person; person->open_auction"),
		mk("Q2", "site->item; site->person; item->category; person->category; person->open_auction"),
		mk("Q3", "open_auction->item; closed_auction->item; item->incategory; incategory->category; open_auction->category"),
		mk("Q4", "site->person; person->open_auction; open_auction->item; item->category; person->item"),
		mk("Q5", "site->regions; regions->item; item->category; site->person; person->category"),
	}
}

// Cyclic returns CY1–CY5: patterns whose condition graphs contain
// undirected cycles — triangles, a diamond, and a 4-clique — so every
// plan closes a cycle with a Selection. Every pattern is
// non-empty on xmark graphs: site reaches every element of its document,
// person reaches categories via profile/interest and open auctions/items
// via watches, and open_auction reaches persons (bidder/seller/author)
// and items (itemref).
func Cyclic() []Workload {
	return []Workload{
		// Triangles.
		mk("CY1", "site->regions; regions->item; site->item"),
		mk("CY2", "open_auction->person; person->category; open_auction->category"),
		mk("CY3", "person->open_auction; open_auction->item; person->item"),
		// Diamond (4-cycle).
		mk("CY4", "closed_auction->item; closed_auction->person; item->category; person->category"),
		// 4-clique: all six conditions among four labels.
		mk("CY5", "site->person; site->item; site->category; person->item; person->category; item->category"),
	}
}

// ScalabilityPath is the Figure 7(a) pattern (a path, Figure 4(a) shape).
func ScalabilityPath() Workload {
	return mk("F7a-path", "site->regions; regions->item; item->incategory")
}

// ScalabilityTree is the Figure 7(b) pattern (a tree, Figure 4(d) shape).
func ScalabilityTree() Workload {
	return mk("F7b-tree", "person->address; person->profile; profile->interest")
}

// ScalabilityGraph is the Figure 7(c) pattern (a graph, Figure 4(i) shape).
func ScalabilityGraph() Workload {
	return mk("F7c-graph", "site->item; site->person; item->category; person->category")
}

// All returns every named workload, for exhaustive tests.
func All() []Workload {
	var out []Workload
	out = append(out, Paths()...)
	out = append(out, Trees()...)
	batteries := []struct {
		suffix string
		ws     []Workload
	}{
		{"x4a", Graphs4A()}, {"x4b", Graphs4B()}, {"x5a", Graphs5A()}, {"x5b", Graphs5B()},
	}
	for _, b := range batteries {
		for _, w := range b.ws {
			out = append(out, Workload{Name: w.Name + b.suffix, Pattern: w.Pattern})
		}
	}
	out = append(out, Cyclic()...)
	out = append(out, ScalabilityPath(), ScalabilityTree(), ScalabilityGraph())
	return out
}

// Skew returns S1–S7, the served read_skew workload's queries over the
// labels of PowerLawDAG: triangles, diamonds, a path and a tailed triangle
// on hub-heavy labels.
func Skew() []Workload {
	return []Workload{
		mk("S1-triangle", "L3->L1; L1->L0; L3->L0"),
		mk("S2-triangle", "L5->L2; L2->L0; L5->L0"),
		mk("S3-triangle", "L6->L4; L4->L2; L6->L2"),
		mk("S4-diamond", "L4->L2; L4->L3; L2->L1; L3->L1"),
		mk("S5-diamond", "L7->L5; L7->L6; L5->L3; L6->L3"),
		mk("S6-path", "L2->L1; L1->L0"),
		mk("S7-tailed", "L9->L6; L6->L4; L9->L4; L4->L8"),
	}
}

// PowerLawDAG is the served read_skew dataset: a preferential-attachment
// DAG where node i points at up to two distinct earlier nodes drawn in
// proportion to in-degree+1, labelled Zipf(1.3) over L0..L11, so a few old
// hubs collect most in-edges. A seed fixes the graph.
func PowerLawDAG(seed int64, nodes int) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, 1.3, 1, 11)
	b := graph.NewBuilder()
	labels := make([]graph.Label, 12)
	for i := range labels {
		labels[i] = b.Intern(fmt.Sprintf("L%d", i))
	}
	// urn holds one ticket per node plus one per in-edge: a uniform draw
	// from it is a draw proportional to in-degree+1.
	urn := make([]graph.NodeID, 0, 3*nodes)
	for i := 0; i < nodes; i++ {
		v := b.AddNodeLabel(labels[zipf.Uint64()])
		if i > 0 {
			first := urn[r.Intn(len(urn))]
			b.AddEdge(v, first)
			urn = append(urn, first)
			if i > 1 {
				second := first
				for second == first {
					second = urn[r.Intn(len(urn))]
				}
				b.AddEdge(v, second)
				urn = append(urn, second)
			}
		}
		urn = append(urn, v)
	}
	return b.Build()
}
