package core

import (
	"context"
	"slices"
	"sort"

	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
	"wdpt/internal/par"
)

// This file is the enumeration core behind ModeEnumerate, ModeMaximal and
// EvaluateFunc. It works on dictionary IDs from the root homomorphisms to
// the sorted answer list; strings appear once, when the sorted answers are
// materialized as cq.Mappings.
//
// Row layout: a homomorphism is a []uint32 row indexed by slot over the
// tree's variables sorted by name (rowLayout.vars), with db.NoID for an
// unbound variable. Extending a homomorphism copies the row and fills the
// slots of the extension unit's variables. An answer row keeps only the
// free variables' slots (rowLayout.freeSlots), still in name order, so
// cq.CompareIDRows sorts answer rows in the canonical order of
// cq.CompareMappings.

// rowLayout is a tree's slot layout for ID rows: vars are the tree's
// variables sorted by name and slotOf inverts them; freeSlots lists the
// free variables' slots in ascending order and ansVars their names, the
// layout of answer rows.
type rowLayout struct {
	vars      []string
	slotOf    map[string]int
	freeSlots []int
	ansVars   []string
}

// rows returns the tree's row layout, building it on first use.
func (p *PatternTree) rows() *rowLayout {
	p.layoutOnce.Do(func() {
		l := &p.layout
		l.vars = p.Vars()
		sort.Strings(l.vars)
		l.slotOf = make(map[string]int, len(l.vars))
		for i, v := range l.vars {
			l.slotOf[v] = i
		}
		l.freeSlots = l.slots(p.free)
		sort.Ints(l.freeSlots)
		for _, sl := range l.freeSlots {
			l.ansVars = append(l.ansVars, l.vars[sl])
		}
	})
	return &p.layout
}

// slots returns the slot of each variable.
func (l *rowLayout) slots(vars []string) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = l.slotOf[v]
	}
	return out
}

// emptyRow returns a row of the layout's width with every slot unbound.
func (l *rowLayout) emptyRow() []uint32 {
	row := make([]uint32, len(l.vars))
	for i := range row {
		row[i] = db.NoID
	}
	return row
}

// enumerateSolve computes the full answer set of Definition 2 as answer
// rows. Root-node homomorphisms are materialized first and then expanded
// downward along extension units; with a parallel pool each root candidate
// expands on its own worker with private visited/answer state, and the
// per-candidate sets merge in candidate order. Visited keys of distinct
// root candidates never collide (every key embeds the root bindings), so
// the per-candidate memos partition the shared sequential memo exactly:
// the expansion work — and its counters — are identical at every
// parallelism level. The guard meter charges enumerated homomorphisms and
// caps the answer set; when the cap fires the remaining candidates are
// skipped and the partial set is returned truncated.
func (p *PatternTree) enumerateSolve(ctx context.Context, d *db.Database, eng cqeval.Engine, st *obs.Stats, pool *par.Pool, m *guard.Meter) (*rowSet, error) {
	roots := p.rootRows(d, eng, st, m)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !pool.Parallel() || len(roots) <= 1 {
		answers := newRowSet(len(p.rows().freeSlots))
		x := p.newExpansion(d, eng, st, m, answers.collect(m))
		for _, h := range roots {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if m.Truncated() {
				break
			}
			x.expand(p.RootSubtree(), h)
		}
		return answers, nil
	}
	sets := par.Map(pool, len(roots), func(i int) *rowSet {
		answers := newRowSet(len(p.rows().freeSlots))
		p.newExpansion(d, eng, st, m, answers.collect(m)).expand(p.RootSubtree(), roots[i])
		return answers
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	merged := sets[0]
	for _, set := range sets[1:] {
		for i := 0; i < set.n; i++ {
			merged.add(set.row(i))
		}
	}
	return merged, nil
}

// rootRows returns the homomorphisms of the root node as rows, in the
// order the solver or engine produced them. With eng == nil the backtracking
// solver runs (each homomorphism charged to the meter); otherwise the
// engine's string rows are translated to IDs at this boundary, recording no
// counter.
func (p *PatternTree) rootRows(d *db.Database, eng cqeval.Engine, st *obs.Stats, m *guard.Meter) [][]uint32 {
	var roots [][]uint32
	l := p.rows()
	slots := l.slots(p.root.vars)
	if eng == nil {
		cq.HomomorphismsIDsObs(p.root.atoms, d, nil, st, m, func(a cq.IDAssignment) bool {
			m.ChargeTuples(1)
			row := l.emptyRow()
			for i, sl := range slots {
				row[sl] = a.IDs[i]
			}
			roots = append(roots, row)
			return true
		})
		return roots
	}
	dict := d.Dict()
	for _, g := range eng.Project(p.root.atoms, d, nil, p.root.vars) {
		row := l.emptyRow()
		for i, v := range p.root.vars {
			if c, ok := g[v]; ok {
				row[slots[i]], _ = dict.ID(c)
			}
		}
		roots = append(roots, row)
	}
	return roots
}

// expansion is the state of one enumeration of p(D): it grows (subtree,
// homomorphism) pairs along extension units until no unit extends them
// and hands the free projection of every maximal homomorphism to emit.
// An expansion is sequential; parallel enumeration gives every root
// candidate its own.
type expansion struct {
	p    *PatternTree
	l    *rowLayout
	d    *db.Database
	eng  cqeval.Engine // nil selects the backtracking solver
	st   *obs.Stats
	m    *guard.Meter
	emit func(ans []uint32) bool // false stops the enumeration; ans is scratch

	stopped bool
	visited map[string]struct{} // packed (subtree, row) keys
	key     []byte
	ans     []uint32
	// rows is a stack of extension rows: each active expand call owns the
	// region it appended, and deeper calls only append past it.
	rows    []uint32
	slotBuf []int
	chk     cq.SatChecker
	// unit and h are the arguments of the extension being collected, read
	// by collectHom (a method value created once, so the solver callback
	// allocates nothing per call).
	unit       *extUnit
	h          []uint32
	collectHom func(cq.IDAssignment) bool
}

func (p *PatternTree) newExpansion(d *db.Database, eng cqeval.Engine, st *obs.Stats, m *guard.Meter, emit func([]uint32) bool) *expansion {
	l := p.rows()
	x := &expansion{
		p: p, l: l, d: d, eng: eng, st: st, m: m, emit: emit,
		visited: make(map[string]struct{}),
		ans:     make([]uint32, len(l.freeSlots)),
	}
	x.collectHom = x.addHom
	return x
}

// expand grows the pair (s, h) along extension units until no extension is
// possible, emitting the free projections of the maximal homomorphisms.
// With eng == nil the node CQs go to the backtracking solver; otherwise to
// the engine. The meter checkpoints each expansion, charges enumerated
// extension homomorphisms, and gates answer collection on the answer
// budget.
func (x *expansion) expand(s Subtree, h []uint32) {
	x.m.Checkpoint()
	if x.stopped || x.m.Truncated() {
		return
	}
	x.key = db.AppendRowKey(s.appendKey(x.key[:0]), h)
	if _, seen := x.visited[string(x.key)]; seen {
		return
	}
	x.visited[string(x.key)] = struct{}{}
	w := len(h)
	extendable := false
	units := x.p.extensionUnits(s)
	for i := range units {
		u := &units[i]
		x.st.Inc(obs.CtrExtensionUnits)
		base := len(x.rows)
		n := x.extend(u, h)
		if n == 0 {
			continue
		}
		extendable = true
		next := s
		for _, nd := range u.nodes {
			next = next.With(nd.id)
		}
		for k := 0; k < n; k++ {
			x.expand(next, x.rows[base+k*w:base+(k+1)*w])
			if x.stopped {
				return
			}
		}
		x.rows = x.rows[:base]
	}
	if !extendable {
		for i, sl := range x.l.freeSlots {
			x.ans[i] = h[sl]
		}
		if !x.emit(x.ans) {
			x.stopped = true
		}
	}
}

// extend pushes every extension of h along unit u onto the row stack and
// returns how many it pushed.
func (x *expansion) extend(u *extUnit, h []uint32) int {
	base := len(x.rows)
	if x.eng == nil {
		x.unit, x.h = u, h
		x.chk.EachAt(u.compiled, x.d, h, u.fixedSlots, x.st, x.m, x.collectHom)
		x.unit, x.h = nil, nil
	} else {
		// The engine sees the unit's share of h: the bindings of the unit
		// variables the subtree already fixes.
		dict := x.d.Dict()
		fixed := make(cq.Mapping, len(u.fixedSlots))
		for i, v := range u.compiled.FixedDom() {
			fixed[v] = dict.Term(h[u.fixedSlots[i]])
		}
		if rel, ok := cqeval.ProjectIDs(x.eng, u.atoms, x.d, fixed, u.vars); ok {
			slots := x.slotBuf[:0]
			for _, v := range rel.Vars {
				slots = append(slots, x.l.slotOf[v])
			}
			x.slotBuf = slots
			for i := 0; i < rel.N; i++ {
				x.rows = append(x.rows, h...)
				row := x.rows[len(x.rows)-len(h):]
				for j, sl := range slots {
					row[sl] = rel.Data[i*len(slots)+j]
				}
			}
		} else {
			// A foreign engine answers in strings; they turn into IDs
			// here, recording no counter.
			for _, g := range x.eng.Project(u.atoms, x.d, fixed, u.vars) {
				x.rows = append(x.rows, h...)
				row := x.rows[len(x.rows)-len(h):]
				for i, v := range u.vars {
					if sl := u.varSlots[i]; row[sl] == db.NoID {
						if c, ok := g[v]; ok {
							row[sl], _ = dict.ID(c)
						}
					}
				}
			}
		}
	}
	// h is never empty: a unit exists only where the tree has a variable.
	return (len(x.rows) - base) / len(h)
}

// addHom is the solver callback of extend's backtracking path: it pushes
// x.h extended by the homomorphism a of x.unit's atoms.
func (x *expansion) addHom(a cq.IDAssignment) bool {
	x.m.ChargeTuples(1)
	x.rows = append(x.rows, x.h...)
	row := x.rows[len(x.rows)-len(x.h):]
	for i, sl := range x.unit.varSlots {
		row[sl] = a.IDs[i]
	}
	return true
}

// rowSet is a set of answer rows of one width, deduplicated on their
// fixed-width packed keys and kept in insertion order.
type rowSet struct {
	w    int
	n    int
	data []uint32
	idx  map[string]struct{}
	key  []byte
}

func newRowSet(w int) *rowSet {
	return &rowSet{w: w, idx: make(map[string]struct{})}
}

// add inserts a copy of row, reporting whether it was new.
func (r *rowSet) add(row []uint32) bool {
	if r.contains(row) {
		return false
	}
	r.idx[string(r.key)] = struct{}{}
	r.data = append(r.data, row...)
	r.n++
	return true
}

// contains reports whether the set holds row.
func (r *rowSet) contains(row []uint32) bool {
	r.key = db.AppendRowKey(r.key[:0], row)
	_, ok := r.idx[string(r.key)]
	return ok
}

// row returns the i-th inserted row. Must not be modified.
func (r *rowSet) row(i int) []uint32 { return r.data[i*r.w : (i+1)*r.w] }

// collect returns the emit callback that gathers answers into r. Under an
// active meter, answer budget is consumed only for rows new to the set;
// refusals mark the enumeration truncated and drop the row.
func (r *rowSet) collect(m *guard.Meter) func([]uint32) bool {
	return func(ans []uint32) bool {
		if m.Active() && !r.contains(ans) && !m.TryAnswer() {
			return true
		}
		r.add(ans)
		return true
	}
}

// answers returns the set as canonically ordered mappings over the tree's
// free variables, restricted to the ⊑-maximal ones when maximal is set
// (p_m(D), Section 3.4). The rows are sorted once, on IDs, and only the
// returned answers are translated to strings.
func (p *PatternTree) answers(d *db.Database, set *rowSet, maximal bool) []cq.Mapping {
	dict := d.Dict()
	order := make([]int, set.n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cq.CompareIDRows(dict, set.row(a), set.row(b))
	})
	if maximal {
		order = slices.DeleteFunc(order, func(i int) bool {
			for j := 0; j < set.n; j++ {
				if j != i && properlySubsumed(set.row(i), set.row(j)) {
					return true
				}
			}
			return false
		})
	}
	out := make([]cq.Mapping, len(order))
	l := p.rows()
	for k, i := range order {
		out[k] = l.answerMapping(dict, set.row(i))
	}
	return out
}

// answerMapping translates an answer row to its string mapping.
func (l *rowLayout) answerMapping(dict *db.Dict, row []uint32) cq.Mapping {
	n := 0
	for _, id := range row {
		if id != db.NoID {
			n++
		}
	}
	h := make(cq.Mapping, n)
	for j, id := range row {
		if id != db.NoID {
			h[l.ansVars[j]] = dict.Term(id)
		}
	}
	return h
}

// properlySubsumed reports a ⊏ b for rows of one layout: every slot bound
// in a holds the same ID in b, and the rows differ.
func properlySubsumed(a, b []uint32) bool {
	for i, id := range a {
		if id != db.NoID && b[i] != id {
			return false
		}
	}
	return !slices.Equal(a, b)
}
