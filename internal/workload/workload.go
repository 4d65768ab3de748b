// Package workload defines the query workloads of the paper's Section 6
// (Figure 4), instantiated with XMark schema labels: nine path patterns
// P1–P9 (3/4/5 nodes), nine tree patterns T1–T9, and two batteries of five
// graph patterns Q1–Q5 with |V_q| = 4 and |V_q| = 5 used in Figure 6.
// Every pattern is non-empty by construction on graphs from
// internal/xmark.
package workload

import "fastmatch/internal/pattern"

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
