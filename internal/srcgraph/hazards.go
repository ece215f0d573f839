package srcgraph

import "sort"

// Hazards reports every hazard site that no //drslint:allow
// suppresses:
//
//   - map-range, wallclock, global-rand and goroutine-captured-write
//     fire in every function and package-level initializer; when a
//     determinism root (an engine or harness entry point) reaches the
//     site's function, the finding carries the witness call chain;
//   - hotpath-alloc fires in any function reachable from a
//     //drslint:hotpath root, with the chain from that root.
//
// A //drslint:allow in a function's doc comment suppresses the named
// checks for the whole function.
func (g *Graph) Hazards() []Finding {
	hot := g.propagate(func(n *funcNode) bool { return n.hotRoot })
	det := g.propagate(func(n *funcNode) bool { return n.detRoot })

	var out []Finding
	for _, id := range g.order {
		n := g.nodes[id]
		sort.Slice(n.hazards, func(i, j int) bool { return n.hazards[i].pos < n.hazards[j].pos })
		for _, h := range n.hazards {
			via := det
			if h.check == CheckHotPathAlloc {
				// Allocation is a performance contract of per-cycle code
				// only, not a correctness one.
				via = hot
				if _, reached := hot[id]; !reached {
					continue
				}
			}
			file, line := g.prog.Rel(h.pos)
			if n.allow[h.check] || lineAllowed(g.prog.Fset, n.file, line, h.check) {
				continue
			}
			f := Finding{File: file, Line: line, Check: h.check, Func: id, Msg: h.msg}
			if _, reached := via[id]; reached {
				f.Chain = via.chain(id)
				f.Root = f.Chain[0]
			}
			out = append(out, f)
		}
	}
	SortFindings(out)
	return out
}

// Roots returns the ids of the graph's determinism and hot roots with
// the rule that made each one a root — drslint -json exposes this so a
// loader regression that silently drops every root is visible.
func (g *Graph) Roots() (det, hot map[string]string) {
	det = make(map[string]string)
	hot = make(map[string]string)
	for _, id := range g.order {
		n := g.nodes[id]
		if n.hotRoot {
			hot[id] = n.rootWhy
		}
		if n.detRoot {
			det[id] = n.rootWhy
		}
	}
	return det, hot
}

// Cones reports how many functions the determinism roots and the hot
// roots reach, roots included: a loader regression that drops call
// edges shrinks them, so drslint prints both.
func (g *Graph) Cones() (det, hot int) {
	det = len(g.propagate(func(n *funcNode) bool { return n.detRoot }))
	hot = len(g.propagate(func(n *funcNode) bool { return n.hotRoot }))
	return det, hot
}

// NumFuncs reports the number of functions in the graph (loader
// health: zero or near-zero means the pass silently checked nothing).
func (g *Graph) NumFuncs() int { return len(g.nodes) }
