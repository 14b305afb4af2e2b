package priv

import "polaris/internal/ir"

// The control-flow graph and dominator tree TestScalarVerdictsAgreeWithCFGDominance
// checks the privatizer against. The paper's IR keeps flow links on
// every statement; here the graph is built from the structured
// statement tree, which is consistent by construction, and only this
// cross-check reads it.

// cfgNode is one vertex of a cfgGraph. Entry and Exit nodes carry a
// nil Stmt.
type cfgNode struct {
	ID    int
	Stmt  ir.Stmt
	Succs []*cfgNode
	Preds []*cfgNode
}

// cfgGraph is the control-flow graph of one program unit, with its
// dominator tree.
type cfgGraph struct {
	Entry *cfgNode
	Exit  *cfgNode
	Nodes []*cfgNode
	// byStmt maps statements to their nodes.
	byStmt map[ir.Stmt]*cfgNode
	// idom[n.ID] is the immediate dominator node (nil for entry).
	idom []*cfgNode
}

// buildCFG constructs the graph of a unit body. DO loops produce a back
// edge from the loop body's end to the DO header and an exit edge from
// the header past the loop; IFs fork and join; RETURN and STOP jump to
// exit.
func buildCFG(u *ir.ProgramUnit) *cfgGraph {
	g := &cfgGraph{byStmt: map[ir.Stmt]*cfgNode{}}
	g.Entry = g.newNode(nil)
	g.Exit = g.newNode(nil)
	last := g.buildBlock(u.Body, []*cfgNode{g.Entry})
	for _, n := range last {
		g.connect(n, g.Exit)
	}
	g.computeDominators()
	return g
}

func (g *cfgGraph) newNode(s ir.Stmt) *cfgNode {
	n := &cfgNode{ID: len(g.Nodes), Stmt: s}
	g.Nodes = append(g.Nodes, n)
	if s != nil {
		g.byStmt[s] = n
	}
	return n
}

func (g *cfgGraph) connect(from, to *cfgNode) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// buildBlock threads the block's statements after the given incoming
// nodes and returns the set of nodes that fall through its end.
func (g *cfgGraph) buildBlock(b *ir.Block, in []*cfgNode) []*cfgNode {
	cur := in
	for _, s := range b.Stmts {
		// Unreachable code after RETURN/STOP still gets nodes, with
		// no incoming edges.
		cur = g.buildStmt(s, cur)
	}
	return cur
}

func (g *cfgGraph) buildStmt(s ir.Stmt, in []*cfgNode) []*cfgNode {
	switch x := s.(type) {
	case *ir.DoStmt:
		header := g.newNode(s)
		for _, p := range in {
			g.connect(p, header)
		}
		bodyEnd := g.buildBlock(x.Body, []*cfgNode{header})
		for _, e := range bodyEnd {
			g.connect(e, header) // back edge
		}
		return []*cfgNode{header} // loop exit falls out of the header
	case *ir.IfStmt:
		cond := g.newNode(s)
		for _, p := range in {
			g.connect(p, cond)
		}
		thenEnd := g.buildBlock(x.Then, []*cfgNode{cond})
		out := append([]*cfgNode{}, thenEnd...)
		if x.Else != nil {
			elseEnd := g.buildBlock(x.Else, []*cfgNode{cond})
			out = append(out, elseEnd...)
		} else {
			out = append(out, cond)
		}
		return out
	case *ir.ReturnStmt, *ir.StopStmt:
		n := g.newNode(s)
		for _, p := range in {
			g.connect(p, n)
		}
		g.connect(n, g.Exit)
		return nil
	default:
		n := g.newNode(s)
		for _, p := range in {
			g.connect(p, n)
		}
		return []*cfgNode{n}
	}
}

// NodeFor returns the node of a statement, or nil.
func (g *cfgGraph) NodeFor(s ir.Stmt) *cfgNode { return g.byStmt[s] }

// computeDominators runs the iterative dominator algorithm
// (Cooper/Harvey/Kennedy) over the graph in reverse postorder.
func (g *cfgGraph) computeDominators() {
	order := g.reversePostorder()
	rpoIndex := make([]int, len(g.Nodes))
	for i, n := range order {
		rpoIndex[n.ID] = i
	}
	g.idom = make([]*cfgNode, len(g.Nodes))
	g.idom[g.Entry.ID] = g.Entry
	changed := true
	for changed {
		changed = false
		for _, n := range order {
			if n == g.Entry {
				continue
			}
			var newIdom *cfgNode
			for _, p := range n.Preds {
				if g.idom[p.ID] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
					continue
				}
				newIdom = g.intersect(p, newIdom, rpoIndex)
			}
			if newIdom != nil && g.idom[n.ID] != newIdom {
				g.idom[n.ID] = newIdom
				changed = true
			}
		}
	}
}

func (g *cfgGraph) intersect(a, b *cfgNode, rpo []int) *cfgNode {
	for a != b {
		for rpo[a.ID] > rpo[b.ID] {
			a = g.idom[a.ID]
		}
		for rpo[b.ID] > rpo[a.ID] {
			b = g.idom[b.ID]
		}
	}
	return a
}

func (g *cfgGraph) reversePostorder() []*cfgNode {
	seen := make([]bool, len(g.Nodes))
	var post []*cfgNode
	var dfs func(*cfgNode)
	dfs = func(n *cfgNode) {
		seen[n.ID] = true
		for _, s := range n.Succs {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		post = append(post, n)
	}
	dfs(g.Entry)
	out := make([]*cfgNode, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	return out
}

// Idom returns the immediate dominator of n (nil for entry or
// unreachable nodes).
func (g *cfgGraph) Idom(n *cfgNode) *cfgNode {
	d := g.idom[n.ID]
	if d == n {
		return nil
	}
	return d
}

// Dominates reports whether a dominates b (reflexively).
func (g *cfgGraph) Dominates(a, b *cfgNode) bool {
	for n := b; n != nil; {
		if n == a {
			return true
		}
		d := g.idom[n.ID]
		if d == nil || d == n {
			return a == n
		}
		n = d
	}
	return false
}

// StmtDominates reports whether statement a dominates statement b.
// Unknown statements never dominate.
func (g *cfgGraph) StmtDominates(a, b ir.Stmt) bool {
	na, nb := g.byStmt[a], g.byStmt[b]
	if na == nil || nb == nil {
		return false
	}
	return g.Dominates(na, nb)
}
