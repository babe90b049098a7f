package wdpt_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"wdpt"
	"wdpt/internal/core"
	"wdpt/internal/db"
	"wdpt/internal/gen"
)

// Definition-level oracle: p(D) computed straight from the {AND, OPT}
// compositional semantics of Pérez et al., which for well-designed
// patterns equals Definition 2. A node's atoms are joined by brute force
// over full relation scans, each child subtree is folded in by left outer
// join — ⟦P₁ OPT P₂⟧ = (⟦P₁⟧ ⋈ ⟦P₂⟧) ∪ (⟦P₁⟧ ∖ ⟦P₂⟧) — and the result is
// projected to the free variables. The oracle reads rows only through
// Relation.Scan and Dict.Term: no index probe, membership check or merge
// join, and no core/cq/cqeval evaluation code, so a fault shared by every
// engine or by the storage layer cannot hide from it.

// mkey renders a mapping canonically; two mappings are equal iff their keys
// are.
func mkey(m wdpt.Mapping) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%q=%q;", k, m[k])
	}
	return b.String()
}

// oracleAtom returns every mapping of a's variables that sends a into d.
func oracleAtom(d *db.Database, a wdpt.Atom) []wdpt.Mapping {
	r := d.Relation(a.Rel)
	if r == nil || r.Arity() != len(a.Args) {
		return nil
	}
	var out []wdpt.Mapping
rows:
	for i := 0; i < r.Len(); i++ {
		m := wdpt.Mapping{}
		for pos, id := range r.Scan(i) {
			c, t := r.Dict().Term(id), a.Args[pos]
			if !t.IsVar() {
				if t.Value() != c {
					continue rows
				}
				continue
			}
			if prev, ok := m[t.Value()]; ok && prev != c {
				continue rows
			}
			m[t.Value()] = c
		}
		out = append(out, m)
	}
	return out
}

// subsumed reports h ⊑ g: dom(h) ⊆ dom(g) and g agrees with h there.
func subsumed(h, g wdpt.Mapping) bool {
	for k, v := range h {
		if w, ok := g[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func compatible(a, b wdpt.Mapping) bool {
	for k, v := range a {
		if w, ok := b[k]; ok && w != v {
			return false
		}
	}
	return true
}

// join is Ω₁ ⋈ Ω₂; with leftOuter it adds Ω₁ ∖ Ω₂, making it Ω₁ ⟕ Ω₂.
func join(l, r []wdpt.Mapping, leftOuter bool) []wdpt.Mapping {
	var out []wdpt.Mapping
	seen := map[string]bool{}
	add := func(m wdpt.Mapping) {
		if k := mkey(m); !seen[k] {
			seen[k] = true
			out = append(out, m)
		}
	}
	for _, a := range l {
		matched := false
		for _, b := range r {
			if !compatible(a, b) {
				continue
			}
			matched = true
			u := wdpt.Mapping{}
			for k, v := range a {
				u[k] = v
			}
			for k, v := range b {
				u[k] = v
			}
			add(u)
		}
		if leftOuter && !matched {
			add(a)
		}
	}
	return out
}

// oracleNode is ⟦n⟧: (…((atoms(n)) ⟕ ⟦c₁⟧) ⟕ …) ⟕ ⟦cₖ⟧.
func oracleNode(d *db.Database, n *core.Node) []wdpt.Mapping {
	res := []wdpt.Mapping{{}}
	for _, a := range n.Atoms() {
		res = join(res, oracleAtom(d, a), false)
	}
	for _, c := range n.Children() {
		res = join(res, oracleNode(d, c), true)
	}
	return res
}

// oracle returns the sorted keys of p(D) and of its ⊑-maximal elements.
func oracle(p *wdpt.PatternTree, d *db.Database) (all, maximal []string) {
	var answers []wdpt.Mapping
	seen := map[string]bool{}
	for _, m := range oracleNode(d, p.Root()) {
		h := wdpt.Mapping{}
		for _, x := range p.Free() {
			if v, ok := m[x]; ok {
				h[x] = v
			}
		}
		if k := mkey(h); !seen[k] {
			seen[k] = true
			answers = append(answers, h)
			all = append(all, k)
		}
	}
	for _, h := range answers {
		dominated := false
		for _, g := range answers {
			if len(g) > len(h) && subsumed(h, g) {
				dominated = true // h ⊏ g
				break
			}
		}
		if !dominated {
			maximal = append(maximal, mkey(h))
		}
	}
	sort.Strings(all)
	sort.Strings(maximal)
	return all, maximal
}

// answerKeys returns the sorted keys of a Solve answer list.
func answerKeys(ms []wdpt.Mapping) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = mkey(m)
	}
	sort.Strings(out)
	return out
}

// modeChecks pairs each enumeration mode with the oracle answer set it
// must produce: p(D) for ModeEnumerate, its ⊑-maximal elements for
// ModeMaximal.
func modeChecks(all, maximal []string) []modeCheck {
	return []modeCheck{{wdpt.ModeEnumerate, all}, {wdpt.ModeMaximal, maximal}}
}

// modeCheck is one Solve mode and the oracle answer keys it must match.
type modeCheck struct {
	mode wdpt.SolveMode
	want []string
}

func checkOracle(t *testing.T, what string, got []wdpt.Mapping, want []string) {
	t.Helper()
	if g := answerKeys(got); strings.Join(g, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s disagrees with the oracle:\n--- solve\n%s\n--- oracle\n%s",
			what, strings.Join(g, "\n"), strings.Join(want, "\n"))
	}
}

// equivCase is one tree/database pair of the shared fixture pool.
type equivCase struct {
	name string
	p    *wdpt.PatternTree
	d    *db.Database
}

// equivCases is the shared fixture pool: the Figure 1 fixture, seeded
// random tree/database pairs with constants in atoms (exercising the
// dictionary-miss path: some query constants are absent from the data),
// Figure 1 projected away from x over a larger music database (so p(D)
// holds non-maximal answers), an OPT chain over a layered graph, and a
// two-atom root over a denser layered graph whose semijoin takes the
// sorted-run merge path with duplicate join keys on both sides.
func equivCases() []equivCase {
	tp := gen.TreeParams{MaxDepth: 2, MaxChildren: 2, AtomsPerNode: 2, ConstProb: 0.3}
	cases := []equivCase{{"figure1", gen.MusicWDPT("x", "y", "z", "zp"), gen.MusicDatabase()}}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, equivCase{
			fmt.Sprintf("random%d", seed),
			gen.RandomWDPT(tp, seed),
			gen.RandomDatabase(gen.DBParams{DomainSize: 5, TuplesPerRel: 25}, seed),
		})
	}
	return append(cases,
		equivCase{"music-large", gen.MusicWDPT("y", "z", "zp"), gen.MusicDatabaseLarge(6, 4, 1)},
		equivCase{"path3", gen.PathWDPT(3, "y0", "y2"), gen.LayeredDatabase(4, 4, 2, 1)},
		equivCase{"layered-join", wdpt.MustNew(wdpt.NodeSpec{
			Atoms:    []wdpt.Atom{wdpt.NewAtom("E", wdpt.V("x"), wdpt.V("y")), wdpt.NewAtom("E", wdpt.V("y"), wdpt.V("z"))},
			Children: []wdpt.NodeSpec{{Atoms: []wdpt.Atom{wdpt.NewAtom("E", wdpt.V("z"), wdpt.V("w"))}}},
		}, []string{"x", "z", "w"}), gen.LayeredDatabase(4, 6, 3, 1)})
}

// unsealedCopy re-inserts d's facts in reverse row order without sealing,
// so term IDs follow first-intern order rather than string order.
func unsealedCopy(d *db.Database) *db.Database {
	out := db.New()
	for _, r := range d.Relations() {
		for i := r.Len() - 1; i >= 0; i-- {
			t := make([]string, r.Arity())
			for pos, id := range r.Scan(i) {
				t[pos] = r.Dict().Term(id)
			}
			out.Insert(r.Name(), t...)
		}
	}
	return out
}

// TestOracleSolve checks ModeEnumerate against the oracle's p(D) and
// ModeMaximal against its ⊑-maximal elements, for every engine and
// parallelism, on sealed and on unsealed data.
func TestOracleSolve(t *testing.T) {
	engines := []struct {
		name string
		mk   func() wdpt.Engine
	}{
		{"nil", func() wdpt.Engine { return nil }},
		{"naive", wdpt.NaiveEngine},
		{"yannakakis", wdpt.YannakakisEngine},
		{"decomposition", wdpt.DecompositionEngine},
		{"auto", wdpt.AutoEngine},
	}
	type variant struct {
		name         string
		d            *db.Database
		all, maximal []string
	}
	for _, c := range equivCases() {
		var variants []variant
		for _, v := range []variant{{name: "sealed", d: c.d}, {name: "unsealed", d: unsealedCopy(c.d)}} {
			v.all, v.maximal = oracle(c.p, v.d)
			variants = append(variants, v)
		}
		for _, e := range engines {
			for _, par := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/p%d", c.name, e.name, par), func(t *testing.T) {
					for _, v := range variants {
						for _, m := range modeChecks(v.all, v.maximal) {
							res, err := c.p.Solve(context.Background(), v.d, wdpt.SolveOptions{
								Mode: m.mode, Engine: e.mk(), Parallelism: par,
							})
							if err != nil {
								t.Fatalf("%s %v: %v", v.name, m.mode, err)
							}
							checkOracle(t, fmt.Sprintf("%s %v", v.name, m.mode), res.Answers, m.want)
						}
					}
				})
			}
		}
	}
}

// TestOracleDegraded pins the guard contract: a tripping tuple budget
// surfaces ErrTupleBudget, and an answer cap with fallback returns a
// labelled degraded answer list that is a subset of the oracle's p(D).
func TestOracleDegraded(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()

	t.Run("tuple-budget-trip", func(t *testing.T) {
		_, err := p.Solve(context.Background(), d, wdpt.SolveOptions{
			Mode:   wdpt.ModeEnumerate,
			Engine: wdpt.YannakakisEngine(),
			Budget: wdpt.Budget{MaxTuples: 3},
		})
		if !errors.Is(err, wdpt.ErrTupleBudget) {
			t.Fatalf("want ErrTupleBudget, got %v", err)
		}
	})

	t.Run("answer-cap-degraded", func(t *testing.T) {
		res, err := p.Solve(context.Background(), d, wdpt.SolveOptions{
			Mode:     wdpt.ModeEnumerate,
			Engine:   wdpt.YannakakisEngine(),
			Budget:   wdpt.Budget{MaxAnswers: 1},
			Fallback: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded || len(res.Answers) == 0 {
			t.Fatalf("want a non-empty degraded answer list, got Degraded=%v with %d answers", res.Degraded, len(res.Answers))
		}
		all, _ := oracle(p, d)
		for _, k := range answerKeys(res.Answers) {
			if i := sort.SearchStrings(all, k); i == len(all) || all[i] != k {
				t.Errorf("degraded answer %s is not in the oracle's p(D)", k)
			}
		}
	})
}

// FuzzOracle derives a seeded random tree/database pair from the fuzz
// input and checks Solve against the oracle. The seed corpus covers the
// dictionary-heavy shapes (constants in atoms, skewed domains).
func FuzzOracle(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(12), false)
	f.Add(int64(7), uint8(2), uint8(30), true)
	f.Add(int64(42), uint8(9), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, domain, tuples uint8, consts bool) {
		tp := gen.TreeParams{MaxDepth: 2, MaxChildren: 2, AtomsPerNode: 2}
		if consts {
			tp.ConstProb = 0.4
		}
		p := gen.RandomWDPT(tp, seed)
		d := gen.RandomDatabase(gen.DBParams{
			DomainSize:   1 + int(domain%10),
			TuplesPerRel: 1 + int(tuples%40),
		}, seed)
		for _, m := range modeChecks(oracle(p, d)) {
			res, err := p.Solve(context.Background(), d, wdpt.SolveOptions{Mode: m.mode, Engine: wdpt.AutoEngine()})
			if err != nil {
				t.Fatalf("%v: %v", m.mode, err)
			}
			checkOracle(t, fmt.Sprint(m.mode), res.Answers, m.want)
		}
	})
}
