package cqeval

import (
	"slices"
	"sort"

	"wdpt/internal/cq"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
	"wdpt/internal/par"
)

// Engine evaluates sets of atoms (CQ bodies) over a database under a partial
// pre-binding of variables.
type Engine interface {
	// Name identifies the engine in benchmark output.
	Name() string
	// Satisfiable reports whether some homomorphism from atoms to d
	// consistent with fixed exists.
	Satisfiable(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) bool
	// Project returns the distinct restrictions to proj of all such
	// homomorphisms. Bindings from fixed for projection variables are
	// included in the output rows; projection variables occurring neither
	// in the atoms nor in fixed are omitted from the rows.
	Project(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) []cq.Mapping
	// Explain returns the plan the engine would use for this query as a
	// structured value, without recording work counters: the strategy,
	// fallbacks taken, structural width, and materialized bag sizes.
	Explain(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) obs.Plan
}

// statsCarrier is the private interface every engine in this package
// implements; WithStats and StatsOf dispatch through it.
type statsCarrier interface {
	withStats(st *obs.Stats) Engine
	stats() *obs.Stats
}

// WithStats returns a copy of eng that records its work on st. A nil st
// returns an engine with observability disabled (the default). Engines not
// constructed by this package are returned unchanged.
func WithStats(eng Engine, st *obs.Stats) Engine {
	if c, ok := eng.(statsCarrier); ok {
		return c.withStats(st)
	}
	return eng
}

// StatsOf returns the stats sink attached to eng by WithStats, or nil.
// Layers above cqeval (internal/core and friends) use it to record their
// own counters on the same sink the engine was given.
func StatsOf(eng Engine) *obs.Stats {
	if c, ok := eng.(statsCarrier); ok {
		return c.stats()
	}
	return nil
}

// poolCarrier is the private interface the plan-based engines implement;
// WithPool and PoolOf dispatch through it.
type poolCarrier interface {
	withPool(pl *par.Pool) Engine
	pool() *par.Pool
}

// WithPool returns a copy of eng whose count-exact plan phases — bag
// materialization, the top-down reduction, and the projecting join — fan
// out over pl. Every parallelized phase produces byte-identical results and
// identical non-par.* counter totals at any worker count; the bottom-up
// semijoin pass stays sequential because its early exit makes its work set
// order-dependent. A nil pl restores sequential evaluation. Engines not
// constructed by this package, and engines with nothing to parallelize
// (the naive engine), are returned unchanged.
func WithPool(eng Engine, pl *par.Pool) Engine {
	if c, ok := eng.(poolCarrier); ok {
		return c.withPool(pl)
	}
	return eng
}

// PoolOf returns the worker pool attached to eng by WithPool, or nil.
func PoolOf(eng Engine) *par.Pool {
	if c, ok := eng.(poolCarrier); ok {
		return c.pool()
	}
	return nil
}

// meterCarrier is the private interface every engine in this package
// implements; WithMeter and MeterOf dispatch through it.
type meterCarrier interface {
	withMeter(gm *guard.Meter) Engine
	meter() *guard.Meter
}

// WithMeter returns a copy of eng that charges its materialized rows —
// bag relations, join rows, domain products, enumerated homomorphisms —
// against the guard meter and checkpoints its semijoin and join loops for
// cancellation. A nil gm restores unmetered evaluation (the default).
// Engines not constructed by this package are returned unchanged.
func WithMeter(eng Engine, gm *guard.Meter) Engine {
	if c, ok := eng.(meterCarrier); ok {
		return c.withMeter(gm)
	}
	return eng
}

// MeterOf returns the guard meter attached to eng by WithMeter, or nil.
// Layers above cqeval use it to checkpoint their own loops against the
// same budget the engine charges.
func MeterOf(eng Engine) *guard.Meter {
	if c, ok := eng.(meterCarrier); ok {
		return c.meter()
	}
	return nil
}

// relProjector is implemented by the engines whose projecting pipeline
// ends in ID rows — every plan-based engine of this package; ProjectIDs
// dispatches through it.
type relProjector interface {
	projectRel(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) *varRel
}

// IDRows is a projection kept in dictionary IDs: N rows of width len(Vars),
// row-major in Data, aligned with Vars.
type IDRows struct {
	Vars []string
	Data []uint32
	N    int
}

// ProjectIDs is eng.Project for callers that continue on IDs: it returns
// the same rows, in the same order, before their translation to strings.
// The columns are the projection variables the atoms mention that fixed
// does not bind, sorted by name (a bound one takes fixed's value in every
// row). Work counters and guard charges are exactly Project's. ok is false
// when eng has no ID-native projection (the naive engine, engines from
// other packages); the caller then uses Project.
func ProjectIDs(eng Engine, atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) (IDRows, bool) {
	rp, ok := eng.(relProjector)
	if !ok {
		return IDRows{}, false
	}
	r := rp.projectRel(atoms, d, fixed, proj)
	if r == nil {
		return IDRows{}, true
	}
	return IDRows{Vars: r.vars, Data: r.data, N: r.n}, true
}

// Naive returns the baseline backtracking engine (general CQs, exponential
// in query size in the worst case).
func Naive() Engine { return naiveEngine{} }

// Yannakakis returns the join-tree semijoin engine for acyclic CQs
// (Theorem 3 substrate); on non-acyclic inputs it transparently falls back
// to the decomposition engine. The returned engine caches the structural
// part of its plans (join trees, decompositions) across calls, keyed on the
// variable shape of the instantiated atoms.
func Yannakakis() Engine { return yannakakisEngine{cache: newPlanCache()} }

// Decomposition returns the tree-decomposition-guided engine: bags of a
// min-fill decomposition become materialized relations processed by
// Yannakakis over the bag tree (Theorem 2 substrate). It handles arbitrary
// CQs; running time is |D|^(w+1) for decomposition width w. Structural
// plans are cached across calls.
func Decomposition() Engine { return decompEngine{cache: newPlanCache()} }

// Auto returns the selecting engine: Yannakakis when the instantiated query
// is acyclic, the decomposition engine otherwise. Structural plans are
// cached across calls.
func Auto() Engine { return autoEngine{cache: newPlanCache()} }

type naiveEngine struct {
	st *obs.Stats
	gm *guard.Meter
}

func (naiveEngine) Name() string { return "naive" }

func (e naiveEngine) withStats(st *obs.Stats) Engine { return naiveEngine{st: st, gm: e.gm} }
func (e naiveEngine) stats() *obs.Stats              { return e.st }

func (e naiveEngine) withMeter(gm *guard.Meter) Engine { return naiveEngine{st: e.st, gm: gm} }
func (e naiveEngine) meter() *guard.Meter              { return e.gm }

func (e naiveEngine) Satisfiable(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) bool {
	e.st.Inc(obs.CtrSatisfiableCalls)
	e.gm.Checkpoint()
	return cq.SatisfiableObs(atoms, d, fixed, e.st, e.gm)
}

func (e naiveEngine) Project(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) []cq.Mapping {
	e.st.Inc(obs.CtrProjectCalls)
	out := cq.NewMappingSet()
	cq.HomomorphismsObs(atoms, d, fixed, e.st, e.gm, func(h cq.Mapping) bool {
		e.gm.ChargeTuples(1)
		row := h.Restrict(proj)
		for _, v := range proj {
			if c, ok := fixed[v]; ok {
				row[v] = c
			}
		}
		out.Add(row)
		return true
	})
	return out.All()
}

func (e naiveEngine) Explain(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) obs.Plan {
	inst, _ := instantiate(atoms, d, fixed)
	return obs.Plan{Engine: e.Name(), Strategy: "backtracking", Atoms: len(inst)}
}

type yannakakisEngine struct {
	st    *obs.Stats
	cache *planCache
	pl    *par.Pool
	gm    *guard.Meter
}

func (yannakakisEngine) Name() string { return "yannakakis" }

func (e yannakakisEngine) withStats(st *obs.Stats) Engine {
	return yannakakisEngine{st: st, cache: e.cache, pl: e.pl, gm: e.gm}
}
func (e yannakakisEngine) stats() *obs.Stats { return e.st }

func (e yannakakisEngine) withPool(pl *par.Pool) Engine {
	return yannakakisEngine{st: e.st, cache: e.cache, pl: pl, gm: e.gm}
}
func (e yannakakisEngine) pool() *par.Pool { return e.pl }

func (e yannakakisEngine) withMeter(gm *guard.Meter) Engine {
	return yannakakisEngine{st: e.st, cache: e.cache, pl: e.pl, gm: gm}
}
func (e yannakakisEngine) meter() *guard.Meter { return e.gm }

// fallback is the decomposition engine sharing this engine's sink, cache,
// pool, and meter.
func (e yannakakisEngine) fallback() decompEngine {
	return decompEngine{st: e.st, cache: e.cache, pl: e.pl, gm: e.gm}
}

func (e yannakakisEngine) Satisfiable(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) bool {
	e.st.Inc(obs.CtrSatisfiableCalls)
	p, ok := prepareJoinTree(atoms, d, fixed, e.st, e.cache, e.pl, e.gm)
	if !ok {
		e.st.Inc(obs.CtrFallbacks)
		return e.fallback().satisfiable(atoms, d, fixed)
	}
	return p.satisfiable()
}

func (e yannakakisEngine) Project(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) []cq.Mapping {
	return e.projectRel(atoms, d, fixed, proj).mappings(d.Dict(), fixed, proj)
}

func (e yannakakisEngine) projectRel(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) *varRel {
	e.st.Inc(obs.CtrProjectCalls)
	p, ok := prepareJoinTree(atoms, d, fixed, e.st, e.cache, e.pl, e.gm)
	if !ok {
		e.st.Inc(obs.CtrFallbacks)
		return e.fallback().projectRows(atoms, d, fixed, proj)
	}
	return p.projectRel(proj)
}

func (e yannakakisEngine) Explain(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) obs.Plan {
	p, ok := prepareJoinTree(atoms, d, fixed, nil, e.cache, nil, nil)
	if !ok {
		out := e.fallback().Explain(atoms, d, fixed)
		out.Engine = e.Name()
		out.Fallback = true
		return out
	}
	return planToObs(p, e.Name(), "join-tree", 1)
}

type decompEngine struct {
	st    *obs.Stats
	cache *planCache
	pl    *par.Pool
	gm    *guard.Meter
}

func (decompEngine) Name() string { return "decomposition" }

func (e decompEngine) withStats(st *obs.Stats) Engine {
	return decompEngine{st: st, cache: e.cache, pl: e.pl, gm: e.gm}
}
func (e decompEngine) stats() *obs.Stats { return e.st }

func (e decompEngine) withPool(pl *par.Pool) Engine {
	return decompEngine{st: e.st, cache: e.cache, pl: pl, gm: e.gm}
}
func (e decompEngine) pool() *par.Pool { return e.pl }

func (e decompEngine) withMeter(gm *guard.Meter) Engine {
	return decompEngine{st: e.st, cache: e.cache, pl: e.pl, gm: gm}
}
func (e decompEngine) meter() *guard.Meter { return e.gm }

func (e decompEngine) Satisfiable(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) bool {
	e.st.Inc(obs.CtrSatisfiableCalls)
	return e.satisfiable(atoms, d, fixed)
}

// satisfiable is the call-counter-free body, shared with fallback paths so
// one logical engine call counts once.
func (e decompEngine) satisfiable(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) bool {
	p, ok := prepareDecomposition(atoms, d, fixed, e.st, e.cache, e.pl, e.gm)
	if !ok {
		return false
	}
	return p.satisfiable()
}

func (e decompEngine) Project(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) []cq.Mapping {
	return e.projectRel(atoms, d, fixed, proj).mappings(d.Dict(), fixed, proj)
}

func (e decompEngine) projectRel(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) *varRel {
	e.st.Inc(obs.CtrProjectCalls)
	return e.projectRows(atoms, d, fixed, proj)
}

// projectRows is the call-counter-free body behind projectRel.
func (e decompEngine) projectRows(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) *varRel {
	p, ok := prepareDecomposition(atoms, d, fixed, e.st, e.cache, e.pl, e.gm)
	if !ok {
		return nil
	}
	return p.projectRel(proj)
}

func (e decompEngine) Explain(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) obs.Plan {
	p, ok := prepareDecomposition(atoms, d, fixed, nil, e.cache, nil, nil)
	if !ok {
		// Provably unsatisfiable before planning (a ground atom failed).
		inst, _ := instantiate(atoms, d, fixed)
		return obs.Plan{Engine: e.Name(), Strategy: "tree-decomposition", Atoms: len(inst)}
	}
	width := 0
	for _, r := range p.rels {
		if w := len(r.vars) - 1; w > width {
			width = w
		}
	}
	return planToObs(p, e.Name(), "tree-decomposition", width)
}

type autoEngine struct {
	st    *obs.Stats
	cache *planCache
	pl    *par.Pool
	gm    *guard.Meter
}

func (autoEngine) Name() string { return "auto" }

func (e autoEngine) withStats(st *obs.Stats) Engine {
	return autoEngine{st: st, cache: e.cache, pl: e.pl, gm: e.gm}
}
func (e autoEngine) stats() *obs.Stats { return e.st }

func (e autoEngine) withPool(pl *par.Pool) Engine {
	return autoEngine{st: e.st, cache: e.cache, pl: pl, gm: e.gm}
}
func (e autoEngine) pool() *par.Pool { return e.pl }

func (e autoEngine) withMeter(gm *guard.Meter) Engine {
	return autoEngine{st: e.st, cache: e.cache, pl: e.pl, gm: gm}
}
func (e autoEngine) meter() *guard.Meter { return e.gm }

func (e autoEngine) delegate() yannakakisEngine {
	return yannakakisEngine{st: e.st, cache: e.cache, pl: e.pl, gm: e.gm}
}

func (e autoEngine) Satisfiable(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) bool {
	return e.delegate().Satisfiable(atoms, d, fixed)
}

func (e autoEngine) Project(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) []cq.Mapping {
	return e.delegate().Project(atoms, d, fixed, proj)
}

func (e autoEngine) projectRel(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) *varRel {
	return e.delegate().projectRel(atoms, d, fixed, proj)
}

func (e autoEngine) Explain(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) obs.Plan {
	out := e.delegate().Explain(atoms, d, fixed)
	out.Engine = e.Name()
	return out
}

// planToObs converts a prepared plan into the structured EXPLAIN value.
func planToObs(p *plan, engine, strategy string, width int) obs.Plan {
	out := obs.Plan{Engine: engine, Strategy: strategy, Width: width, Atoms: p.nAtoms}
	for i, r := range p.rels {
		atoms := 0
		if i < len(p.bagAtoms) {
			atoms = p.bagAtoms[i]
		}
		out.Bags = append(out.Bags, obs.PlanBag{
			Vars:   append([]string(nil), r.vars...),
			Atoms:  atoms,
			Rows:   r.n,
			Parent: p.parent[i],
		})
	}
	return out
}

// plan is a tree of node relations (from a join tree or a tree
// decomposition) ready for semijoin processing.
type plan struct {
	rels     []*varRel
	dict     *db.Dict
	parent   []int
	order    []int // bottom-up
	failed   bool  // a ground atom failed or a node relation is empty by construction
	st       *obs.Stats
	pl       *par.Pool
	gm       *guard.Meter
	nAtoms   int   // instantiated atoms the plan covers
	bagAtoms []int // atoms assigned per bag (diagnostics for Explain)
}

// trivialPlan is the plan for a query whose atoms were all ground and
// passed: a single empty-row relation.
func trivialPlan(st *obs.Stats) *plan {
	return &plan{
		rels:   []*varRel{{n: 1}},
		parent: []int{-1},
		order:  []int{0},
		st:     st,
	}
}

// instantiate applies fixed to the atoms, checks ground atoms directly
// against the database, and returns the remaining atoms with variables.
// ok=false means a ground atom failed.
func instantiate(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) ([]cq.Atom, bool) {
	var out []cq.Atom
	for _, a := range atoms {
		inst := fixed.ApplyAtom(a)
		if inst.IsGround() {
			vals := make([]string, len(inst.Args))
			for i, t := range inst.Args {
				vals[i] = t.Value()
			}
			if !d.Contains(inst.Rel, vals...) {
				return nil, false
			}
			continue
		}
		out = append(out, inst)
	}
	return cq.DedupAtoms(out), true
}

// prepareJoinTree builds a Yannakakis plan from the GYO join tree of the
// instantiated atoms. ok=false means the instantiated query is not acyclic
// (the caller should fall back); a plan with failed=true means provably
// unsatisfiable. The join-tree shape is served from cache when the
// variable shape of the instantiated atoms has been planned before; bag
// relations materialize in parallel over pl (one independent backtracking
// search per atom, so row sets and counters match the sequential pass).
func prepareJoinTree(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, st *obs.Stats, cache *planCache, pl *par.Pool, gm *guard.Meter) (*plan, bool) {
	inst, ok := instantiate(atoms, d, fixed)
	if !ok {
		return &plan{failed: true, st: st}, true
	}
	if len(inst) == 0 {
		return trivialPlan(st), true
	}
	key := shapeKey("jt", inst)
	shape := cache.do(key, st, func() *cachedShape {
		hg := cq.AtomsHypergraph(inst)
		acyclic, jt := hg.IsAcyclic()
		if !acyclic {
			return &cachedShape{}
		}
		st.Inc(obs.CtrJoinTreesBuilt)
		return &cachedShape{ok: true, parent: jt.Parent, order: jt.Order}
	})
	if !shape.ok {
		return nil, false
	}
	p := &plan{dict: d.Dict(), parent: shape.parent, order: shape.order, st: st, pl: pl, gm: gm, nAtoms: len(inst)}
	p.rels = par.Map(pl, len(inst), func(i int) *varRel {
		guard.Fault(guard.SiteCQEvalBag)
		r := newVarRel(inst[i].Vars())
		r.setData(cq.ProjectionIDs([]cq.Atom{inst[i]}, d, nil, st, gm, r.vars))
		gm.ChargeTuples(int64(r.n))
		return r
	})
	p.bagAtoms = make([]int, len(inst))
	for i, r := range p.rels {
		if r.n == 0 {
			p.failed = true
		}
		p.bagAtoms[i] = 1
	}
	st.Add(obs.CtrBagsBuilt, int64(len(p.rels)))
	for _, r := range p.rels {
		st.Add(obs.CtrBagRows, int64(r.n))
	}
	return p, true
}

// prepareDecomposition builds a plan from a min-fill tree decomposition:
// each atom is assigned to a bag covering it; bag relations enumerate
// satisfying assignments of the assigned atoms extended over per-variable
// candidate domains for unconstrained bag variables. ok=false means
// provably unsatisfiable before planning. The decomposition shape is
// served from cache when available; bag relations materialize in parallel
// over pl.
func prepareDecomposition(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, st *obs.Stats, cache *planCache, pl *par.Pool, gm *guard.Meter) (*plan, bool) {
	inst, ok := instantiate(atoms, d, fixed)
	if !ok {
		return nil, false
	}
	if len(inst) == 0 {
		return trivialPlan(st), true
	}
	key := shapeKey("td", inst)
	shape := cache.do(key, st, func() *cachedShape {
		hg := cq.AtomsHypergraph(inst)
		dec := hg.TreeDecomposition()
		st.Inc(obs.CtrDecompositionsBuilt)
		return &cachedShape{ok: true, bags: dec.Bags, parent: dec.Parent, order: bottomUpOrder(dec.Parent)}
	})
	bags, parent, order := shape.bags, shape.parent, shape.order
	nBags := len(bags)

	bagSets := make([]map[string]bool, nBags)
	for i, b := range bags {
		bagSets[i] = make(map[string]bool, len(b))
		for _, v := range b {
			bagSets[i][v] = true
		}
	}
	assigned := make([][]cq.Atom, nBags)
	for _, a := range inst {
		placed := false
		for i := range bagSets {
			if coversAtom(bagSets[i], a) {
				assigned[i] = append(assigned[i], a)
				placed = true
				break
			}
		}
		if !placed {
			// Cannot happen for a valid tree decomposition.
			//lint:ignore R2 unreachable invariant violation: every atom is covered by construction
			panic("cqeval: atom not covered by any bag")
		}
	}
	cand := candidateDomains(inst, d)
	p := &plan{dict: d.Dict(), parent: parent, order: order, st: st, pl: pl, gm: gm, nAtoms: len(inst)}
	p.rels = par.Map(pl, nBags, func(i int) *varRel {
		guard.Fault(guard.SiteCQEvalBag)
		r := newVarRel(bags[i])
		covered := make(map[string]bool)
		for _, a := range assigned[i] {
			for _, v := range a.Vars() {
				covered[v] = true
			}
		}
		var uncovered []string
		for _, v := range r.vars {
			if !covered[v] {
				uncovered = append(uncovered, v)
			}
		}
		base := cq.ProjectionIDs(assigned[i], d, nil, st, gm, r.vars)
		gm.ChargeTuples(int64(len(base) / r.w))
		vals := make([][]uint32, len(uncovered))
		for k, v := range uncovered {
			vals[k] = cand[v]
		}
		r.setData(extendOverDomains(base, r.w, varPositions(r.vars, uncovered), vals, gm))
		if len(uncovered) > 0 {
			st.Add(obs.CtrDomainProductRows, int64(r.n))
		}
		return r
	})
	p.bagAtoms = make([]int, nBags)
	for i, r := range p.rels {
		if r.n == 0 {
			p.failed = true
		}
		p.bagAtoms[i] = len(assigned[i])
	}
	st.Add(obs.CtrBagsBuilt, int64(nBags))
	for _, r := range p.rels {
		st.Add(obs.CtrBagRows, int64(r.n))
	}
	return p, true
}

func coversAtom(bag map[string]bool, a cq.Atom) bool {
	for _, v := range a.Vars() {
		if !bag[v] {
			return false
		}
	}
	return true
}

// candidateDomains computes, for each variable, the intersection over all
// its occurrences of the term IDs in the corresponding relation column — a
// sound per-variable filter, computed entirely on dictionary-encoded
// columns.
func candidateDomains(atoms []cq.Atom, d *db.Database) map[string][]uint32 {
	sets := make(map[string]map[uint32]bool)
	for _, a := range atoms {
		rel := d.Relation(a.Rel)
		for pos, t := range a.Args {
			if !t.IsVar() {
				continue
			}
			col := make(map[uint32]bool)
			if rel != nil && rel.Arity() == len(a.Args) {
				for i, n := 0, rel.Len(); i < n; i++ {
					col[rel.At(i, pos)] = true
				}
			}
			if prev, ok := sets[t.Value()]; ok {
				for v := range prev {
					if !col[v] {
						delete(prev, v)
					}
				}
			} else {
				sets[t.Value()] = col
			}
		}
	}
	out := make(map[string][]uint32, len(sets))
	for v, set := range sets {
		vals := make([]uint32, 0, len(set))
		for c := range set {
			vals = append(vals, c)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		out[v] = vals
	}
	return out
}

// extendOverDomains extends each base row (flat, width w) with all
// combinations of candidate IDs for the uncovered variable positions,
// charging each product row against the guard meter (the decomposition
// engine's cross-product blow-up is exactly the path a tuple budget must
// bound).
func extendOverDomains(base []uint32, w int, uncovered []int, vals [][]uint32, gm *guard.Meter) []uint32 {
	rows := base
	for k, pos := range uncovered {
		vs := vals[k]
		if len(vs) == 0 {
			return nil
		}
		n := len(rows) / w
		next := make([]uint32, 0, len(rows)*len(vs))
		for i := 0; i < n; i++ {
			row := rows[i*w : (i+1)*w]
			for _, c := range vs {
				gm.ChargeTuples(1)
				next = append(next, row...)
				next[len(next)-w+pos] = c
			}
		}
		rows = next
	}
	return rows
}

func bottomUpOrder(parent []int) []int {
	n := len(parent)
	children := make([][]int, n)
	root := -1
	for i, p := range parent {
		if p == -1 {
			root = i
		} else {
			children[p] = append(children[p], i)
		}
	}
	var order []int
	var walk func(int)
	walk = func(v int) {
		for _, c := range children[v] {
			walk(c)
		}
		order = append(order, v)
	}
	if root >= 0 {
		walk(root)
	}
	return order
}

// satisfiable runs the bottom-up semijoin pass and reports whether the root
// relation stays nonempty. Always sequential: the early exit on an emptied
// parent makes the pass's work set order-dependent, so parallelizing it
// would change counter totals run to run.
func (p *plan) satisfiable() bool {
	if p.failed {
		return false
	}
	for _, i := range p.order {
		if pa := p.parent[i]; pa != -1 {
			p.gm.Checkpoint()
			guard.Fault(guard.SiteCQEvalSemijoin)
			p.rels[pa].semijoin(p.rels[i], p.st)
			p.st.Inc(obs.CtrSemijoinPasses)
			if p.rels[pa].n == 0 {
				return false
			}
		}
	}
	root := p.order[len(p.order)-1]
	return p.rels[root].n > 0
}

// projectRel performs the full Yannakakis pipeline: bottom-up reduction,
// top-down reduction, then a projecting join along the tree. It returns
// the projection to proj as ID rows, or nil when there is none: the
// columns are the projection variables the instantiated atoms mention,
// sorted by name, and the rows are duplicate-free and sorted so that the
// mappings Project makes of them come out in canonical order.
func (p *plan) projectRel(proj []string) *varRel {
	if p.failed {
		return nil
	}
	// Bottom-up full reduction (sequential; see satisfiable).
	for _, i := range p.order {
		if pa := p.parent[i]; pa != -1 {
			p.gm.Checkpoint()
			guard.Fault(guard.SiteCQEvalSemijoin)
			p.rels[pa].semijoin(p.rels[i], p.st)
			p.st.Inc(obs.CtrSemijoinPasses)
			if p.rels[pa].n == 0 {
				return nil
			}
		}
	}
	p.topDownReduce()
	// Projecting join along the tree.
	n := len(p.rels)
	children := make([][]int, n)
	root := -1
	for i, pa := range p.parent {
		if pa == -1 {
			root = i
		} else {
			children[pa] = append(children[pa], i)
		}
	}
	subtreeVars := make([][]string, n)
	var collect func(int) []string
	collect = func(v int) []string {
		vars := p.rels[v].vars
		for _, c := range children[v] {
			vars = unionVars(vars, collect(c))
		}
		subtreeVars[v] = vars
		return vars
	}
	collect(root)
	// Sibling subtrees are independent, so their recursive answer relations
	// compute in parallel; the fold into the parent stays in child order, so
	// the join sequence — and the join counter — match the sequential pass.
	var answers func(int) *varRel
	answers = func(v int) *varRel {
		r := p.rels[v]
		if kids := children[v]; len(kids) > 0 {
			for _, cr := range par.Map(p.pl, len(kids), func(k int) *varRel {
				return answers(kids[k])
			}) {
				p.gm.Checkpoint()
				r = join(r, cr, p.gm)
				p.st.Inc(obs.CtrJoins)
			}
		}
		keep := sharedVars(subtreeVars[v], proj)
		if pa := p.parent[v]; pa != -1 {
			keep = unionVars(keep, sharedVars(p.rels[v].vars, p.rels[pa].vars))
		}
		return r.project(keep)
	}
	result := answers(root)
	// The root projection is duplicate-free, its columns are sorted by
	// name and every row binds every column (bag rows bind all their
	// variables), so cq.CompareIDRows orders the rows as CompareMappings
	// orders their mappings — also once mappings add the same fixed
	// bindings to every row. On a sealed database the rows usually arrive
	// in that order already.
	inOrder := true
	for i := 1; i < result.n && inOrder; i++ {
		inOrder = cq.CompareIDRows(p.dict, result.row(i-1), result.row(i)) < 0
	}
	if inOrder {
		return result
	}
	order := make([]int, result.n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cq.CompareIDRows(p.dict, result.row(a), result.row(b))
	})
	sorted := &varRel{vars: result.vars, w: result.w, n: result.n, data: make([]uint32, 0, len(result.data))}
	for _, i := range order {
		sorted.data = append(sorted.data, result.row(i)...)
	}
	return sorted
}

// mappings translates a projectRel result into Project's string rows:
// each row's bindings plus fixed's bindings for projection variables. This
// is the only place the projecting pipeline touches the dictionary's
// strings.
func (r *varRel) mappings(dict *db.Dict, fixed cq.Mapping, proj []string) []cq.Mapping {
	if r == nil {
		return nil
	}
	var extra []string // variable/value pairs
	for _, v := range proj {
		if c, ok := fixed[v]; ok {
			extra = append(extra, v, c)
		}
	}
	out := make([]cq.Mapping, r.n)
	for i := 0; i < r.n; i++ {
		row := r.row(i)
		h := make(cq.Mapping, r.w+len(extra)/2)
		for j, v := range r.vars {
			if id := row[j]; id != db.NoID {
				h[v] = dict.Term(id)
			}
		}
		for j := 0; j < len(extra); j += 2 {
			h[extra[j]] = extra[j+1]
		}
		out[i] = h
	}
	return out
}

// topDownReduce semijoins every node with its (already reduced) parent. At
// Parallelism 1 children reduce in reverse bottom-up order; in parallel
// they reduce in waves by depth: a node's parent is final after the
// previous wave and each task writes only its own relation, so the reduced
// relations — and the semijoin count, one per tree edge — are identical to
// the sequential pass.
func (p *plan) topDownReduce() {
	if !p.pl.Parallel() {
		for j := len(p.order) - 1; j >= 0; j-- {
			i := p.order[j]
			if pa := p.parent[i]; pa != -1 {
				p.gm.Checkpoint()
				guard.Fault(guard.SiteCQEvalSemijoin)
				p.rels[i].semijoin(p.rels[pa], p.st)
				p.st.Inc(obs.CtrSemijoinPasses)
			}
		}
		return
	}
	depth := make([]int, len(p.rels))
	maxDepth := 0
	for j := len(p.order) - 1; j >= 0; j-- { // reverse bottom-up = parents first
		i := p.order[j]
		if pa := p.parent[i]; pa != -1 {
			depth[i] = depth[pa] + 1
			if depth[i] > maxDepth {
				maxDepth = depth[i]
			}
		}
	}
	waves := make([][]int, maxDepth+1)
	for j := len(p.order) - 1; j >= 0; j-- {
		i := p.order[j]
		if p.parent[i] != -1 {
			waves[depth[i]] = append(waves[depth[i]], i)
		}
	}
	for _, wave := range waves {
		wave := wave
		p.pl.Run(len(wave), func(k int) {
			i := wave[k]
			p.gm.Checkpoint()
			guard.Fault(guard.SiteCQEvalSemijoin)
			p.rels[i].semijoin(p.rels[p.parent[i]], p.st)
			p.st.Inc(obs.CtrSemijoinPasses)
		})
	}
}
