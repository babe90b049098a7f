package cqeval

import (
	"fmt"

	"wdpt/internal/cq"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/hypergraph"
	"wdpt/internal/obs"
	"wdpt/internal/par"
)

// Hypertree returns the GHD-guided engine: a generalized hypertree
// decomposition of width ≤ maxWidth is searched (growing from width 1);
// each bag's relation is the join of its covering atoms projected to the
// bag, and the bag tree is processed by Yannakakis. For acyclic queries
// this coincides with the Yannakakis engine; for cyclic queries of small
// hypertree width — such as Example 5's θ_n family, whose treewidth is
// unbounded — it evaluates in |D|^O(maxWidth) where variable-based
// decompositions cannot help. Queries whose instantiated hypergraph
// exceeds maxWidth fall back to the decomposition engine. Structural
// decompositions are cached across calls.
func Hypertree(maxWidth int) Engine {
	if maxWidth < 1 {
		maxWidth = 1
	}
	return hypertreeEngine{maxWidth: maxWidth, cache: newPlanCache()}
}

type hypertreeEngine struct {
	maxWidth int
	st       *obs.Stats
	cache    *planCache
	pl       *par.Pool
	gm       *guard.Meter
}

func (e hypertreeEngine) Name() string { return "hypertree" }

func (e hypertreeEngine) withStats(st *obs.Stats) Engine {
	return hypertreeEngine{maxWidth: e.maxWidth, st: st, cache: e.cache, pl: e.pl, gm: e.gm}
}
func (e hypertreeEngine) stats() *obs.Stats { return e.st }

func (e hypertreeEngine) withPool(pl *par.Pool) Engine {
	return hypertreeEngine{maxWidth: e.maxWidth, st: e.st, cache: e.cache, pl: pl, gm: e.gm}
}
func (e hypertreeEngine) pool() *par.Pool { return e.pl }

func (e hypertreeEngine) withMeter(gm *guard.Meter) Engine {
	return hypertreeEngine{maxWidth: e.maxWidth, st: e.st, cache: e.cache, pl: e.pl, gm: gm}
}
func (e hypertreeEngine) meter() *guard.Meter { return e.gm }

// fallback is the decomposition engine sharing this engine's sink, cache,
// pool, and meter.
func (e hypertreeEngine) fallback() decompEngine {
	return decompEngine{st: e.st, cache: e.cache, pl: e.pl, gm: e.gm}
}

func (e hypertreeEngine) Satisfiable(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) bool {
	e.st.Inc(obs.CtrSatisfiableCalls)
	p, _, ok := e.prepare(atoms, d, fixed, e.st, e.pl, e.gm)
	if !ok {
		e.st.Inc(obs.CtrFallbacks)
		return e.fallback().satisfiable(atoms, d, fixed)
	}
	return p.satisfiable()
}

func (e hypertreeEngine) Project(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) []cq.Mapping {
	return e.projectRel(atoms, d, fixed, proj).mappings(d.Dict(), fixed, proj)
}

func (e hypertreeEngine) projectRel(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) *varRel {
	e.st.Inc(obs.CtrProjectCalls)
	p, _, ok := e.prepare(atoms, d, fixed, e.st, e.pl, e.gm)
	if !ok {
		e.st.Inc(obs.CtrFallbacks)
		return e.fallback().projectRows(atoms, d, fixed, proj)
	}
	return p.projectRel(proj)
}

func (e hypertreeEngine) Explain(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) obs.Plan {
	p, width, ok := e.prepare(atoms, d, fixed, nil, nil, nil)
	if !ok {
		out := e.fallback().Explain(atoms, d, fixed)
		out.Engine = e.Name()
		out.Fallback = true
		return out
	}
	return planToObs(p, e.Name(), "ghd", width)
}

// prepare builds the plan; ok=false requests the fallback (width exceeded).
// The width return is the GHD width at which the search succeeded. Bag
// relations materialize in parallel over pl.
func (e hypertreeEngine) prepare(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, st *obs.Stats, pl *par.Pool, gm *guard.Meter) (*plan, int, bool) {
	inst, groundOK := instantiate(atoms, d, fixed)
	if !groundOK {
		return &plan{failed: true, st: st}, 0, true
	}
	if len(inst) == 0 {
		return trivialPlan(st), 0, true
	}
	key := shapeKey(fmt.Sprintf("ghd%d", e.maxWidth), inst)
	shape := e.cache.do(key, st, func() *cachedShape {
		hg := cq.AtomsHypergraph(inst)
		var g *hypergraph.GHD
		width := 0
		for k := 1; k <= e.maxWidth; k++ {
			if gd, ok := hg.GeneralizedHypertreeDecomposition(k); ok {
				g = gd
				width = k
				break
			}
		}
		if g == nil {
			return &cachedShape{}
		}
		st.Inc(obs.CtrGHDsBuilt)
		return &cachedShape{ok: true, bags: g.Bags, parent: g.Parent, order: bottomUpOrder(g.Parent), covers: g.Covers, width: width}
	})
	if !shape.ok {
		return nil, 0, false
	}
	bags, parent, order, covers, width := shape.bags, shape.parent, shape.order, shape.covers, shape.width
	// Every atom must be enforced at some bag covering its variables, even
	// when it is not part of that bag's edge cover.
	bagSets := make([]map[string]bool, len(bags))
	for i, bag := range bags {
		bagSets[i] = make(map[string]bool, len(bag))
		for _, v := range bag {
			bagSets[i][v] = true
		}
	}
	assigned := make([][]cq.Atom, len(bags))
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
			//lint:ignore R2 unreachable invariant violation: every atom is covered by construction
			panic("cqeval: atom not covered by any GHD bag")
		}
	}
	p := &plan{dict: d.Dict(), parent: parent, order: order, st: st, pl: pl, gm: gm, nAtoms: len(inst)}
	p.rels = par.Map(pl, len(bags), func(i int) *varRel {
		guard.Fault(guard.SiteCQEvalBag)
		local := append([]cq.Atom(nil), assigned[i]...)
		for _, ei := range covers[i] {
			local = append(local, inst[ei])
		}
		r := newVarRel(bags[i])
		r.setData(cq.ProjectionIDs(cq.DedupAtoms(local), d, nil, st, gm, r.vars))
		gm.ChargeTuples(int64(r.n))
		return r
	})
	p.bagAtoms = make([]int, len(bags))
	for i, r := range p.rels {
		if r.n == 0 {
			p.failed = true
		}
		p.bagAtoms[i] = len(assigned[i])
	}
	st.Add(obs.CtrBagsBuilt, int64(len(bags)))
	for _, r := range p.rels {
		st.Add(obs.CtrBagRows, int64(r.n))
	}
	return p, width, true
}
