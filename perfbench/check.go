package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The checker computes every expected answer straight from the generated
// data, with no code of the repository's engines: a depth-first walk for
// OPT chains and band lookups, and the definitions of EVAL, PARTIAL-EVAL
// and MAX-EVAL over the enumerated answer set p(D).

// binding is one variable binding of an answer.
type binding struct{ name, value string }

// answer is one mapping, its bindings sorted by variable name.
type answer []binding

// compareAnswers is the canonical solution order: bindings are compared in
// variable order, first by variable name, then by value; a proper prefix
// sorts first.
func compareAnswers(a, b answer) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := strings.Compare(a[i].name, b[i].name); c != 0 {
			return c
		}
		if c := strings.Compare(a[i].value, b[i].value); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// key renders an answer as one comparable string.
func (a answer) key() string {
	var b strings.Builder
	for _, bd := range a {
		b.WriteString(bd.name)
		b.WriteByte('=')
		b.WriteString(bd.value)
		b.WriteByte(';')
	}
	return b.String()
}

// chainPaths walks every maximal path of at most depth edges from start:
// a path stops early only at a vertex without successors. The paths are
// the answers of the depth-deep OPT chain from start (Definition 2): each
// node's atom extends the mapping exactly when the current vertex has a
// successor. No path at all means the root atom has no match. Successors
// are visited in name order, so the paths come in canonical answer order.
func chainPaths(g *graph, start, depth int, visit func(path []int)) {
	path := make([]int, 0, depth)
	var walk func(l, v int)
	walk = func(l, v int) {
		succ := g.sorted[l][v]
		if len(path) == depth || len(succ) == 0 {
			if len(path) > 0 {
				visit(path)
			}
			return
		}
		for _, u := range succ {
			path = append(path, u)
			walk(l+1, u)
			path = path[:len(path)-1]
		}
	}
	walk(0, start)
}

// pathAnswer binds x1..xk to the vertices of a path.
func (g *graph) pathAnswer(path []int) answer {
	a := make(answer, len(path))
	for i, v := range path {
		a[i] = binding{g.vars[i], g.names[i+1][v]}
	}
	return a
}

// lookupAnswers evaluates the Figure 1 query with the band bound: one
// answer per record of the band published after 2010, extended by each of
// its ratings and each founding year of the band when there are any.
func lookupAnswers(bd band) []answer {
	var out []answer
	for _, r := range bd.recs {
		if !r.after {
			continue
		}
		zs, zps := r.ratings, bd.formed
		if len(zs) == 0 {
			zs = []string{""}
		}
		if len(zps) == 0 {
			zps = []string{""}
		}
		for _, z := range zs {
			for _, zp := range zps {
				a := answer{{"x", r.name}}
				if z != "" {
					a = append(a, binding{"z", z})
				}
				if zp != "" {
					a = append(a, binding{"zp", zp})
				}
				out = append(out, a)
			}
		}
	}
	return out
}

// decide answers a decision request from the definitions, over the chain's
// answer set p(D), each answer a path binding x1..xk:
//   - EVAL: h ∈ p(D);
//   - PARTIAL-EVAL: h ⊑ a for some a ∈ p(D);
//   - MAX-EVAL: h ∈ p(D) and no a ∈ p(D) extends h properly (h ∈ p_m(D)).
//
// An answer a extends h (h ⊑ a) when a binds every variable of h to h's
// value.
func decide(w *workload, r *request) bool {
	var paths [][]int
	chainPaths(w.g, r.starts[0], w.depth, func(p []int) { paths = append(paths, append([]int(nil), p...)) })
	extends := func(p []int) bool {
		for name, val := range r.mapping {
			k, err := strconv.Atoi(strings.TrimPrefix(name, "x"))
			if err != nil || k < 1 || k > len(p) || w.g.names[k][p[k-1]] != val {
				return false
			}
		}
		return true
	}
	member, partial, proper := false, false, false
	for _, p := range paths {
		if !extends(p) {
			continue
		}
		partial = true
		if len(p) == len(r.mapping) {
			member = true
		} else {
			proper = true
		}
	}
	switch r.kind {
	case kindExact:
		return member
	case kindPart:
		return partial
	case kindMax:
		return member && !proper
	}
	panic("decide: not a decision request: " + r.kind)
}

// expectedAnswers computes the answer set of an enumeration request,
// canonically sorted and free of duplicates.
func expectedAnswers(w *workload, r *request) []answer {
	var out []answer
	switch r.kind {
	case kindChain, kindUnion:
		for _, s := range r.starts {
			var chain []answer
			chainPaths(w.g, s, w.depth, func(p []int) { chain = append(chain, w.g.pathAnswer(p)) })
			out = mergeAnswers(out, chain)
		}
		return out
	case kindLookup:
		out = lookupAnswers(w.music[r.band])
	}
	sort.Slice(out, func(i, j int) bool { return compareAnswers(out[i], out[j]) < 0 })
	return out
}

// mergeAnswers merges two canonically sorted answer lists, dropping
// duplicates (set union).
func mergeAnswers(a, b []answer) []answer {
	out := make([]answer, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch c := compareAnswers(a[0], b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// renderBody renders the response body wdptd's report encoder produces for
// a parallelism-1 request with the auto engine: two-space-indented JSON,
// fields in report order, answers in canonical order with their bindings
// sorted by variable name. The checker compares digests of these bytes
// first; a body that differs is then compared as a set of answers
// (sameAnswers), so a change of formatting alone is not a wrong answer.
func renderBody(mode string, answers []answer, holds *bool) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"mode\": %q,\n  \"engine\": \"auto\",\n  \"parallelism\": 1,\n", mode)
	if holds != nil {
		fmt.Fprintf(&b, "  \"result\": %t\n}\n", *holds)
		return b.Bytes()
	}
	fmt.Fprintf(&b, "  \"answer_count\": %d", len(answers))
	if len(answers) == 0 {
		b.WriteString("\n}\n")
		return b.Bytes()
	}
	b.WriteString(",\n  \"answers\": [\n")
	for i, a := range answers {
		b.WriteString("    {\n")
		for j, bd := range a {
			// Generated names and values are letters, digits and '_', which
			// JSON strings hold unescaped.
			b.WriteString("      \"")
			b.WriteString(bd.name)
			b.WriteString("\": \"")
			b.WriteString(bd.value)
			b.WriteByte('"')
			if j+1 < len(a) {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("    }")
		if i+1 < len(answers) {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("  ]\n}\n")
	return b.Bytes()
}

// expectation is what the checker knows about one distinct request: the
// digest of the expected body. The answers themselves are recomputed only
// when a body does not match the digest.
type expectation struct {
	digest [32]byte
	count  int // answers (enumeration) or 1 (decision)
}

// expect computes the expectation of a query request.
func expect(w *workload, r *request) expectation {
	if r.mode == "enumerate" {
		answers := expectedAnswers(w, r)
		return expectation{digest: sha256.Sum256(renderBody(r.mode, answers, nil)), count: len(answers)}
	}
	holds := decide(w, r)
	return expectation{digest: sha256.Sum256(renderBody(r.mode, nil, &holds)), count: 1}
}

// responseDoc is the part of a /v1/query response body the checker reads.
type responseDoc struct {
	Mode        string              `json:"mode"`
	AnswerCount *int                `json:"answer_count"`
	Answers     []map[string]string `json:"answers"`
	Result      *bool               `json:"result"`
	Degraded    *bool               `json:"degraded"`
}

// sameAnswers decodes a body whose bytes differ from the rendered
// expectation and compares its content with the expected answer set or
// verdict.
func sameAnswers(w *workload, r *request, body []byte) bool {
	var doc responseDoc
	if err := json.Unmarshal(body, &doc); err != nil || doc.Mode != r.mode || (doc.Degraded != nil && *doc.Degraded) {
		return false
	}
	if r.mode != "enumerate" {
		return doc.Result != nil && *doc.Result == decide(w, r)
	}
	want := expectedAnswers(w, r)
	if doc.AnswerCount == nil || *doc.AnswerCount != len(want) || len(doc.Answers) != len(want) {
		return false
	}
	got := make(map[string]bool, len(doc.Answers))
	for _, m := range doc.Answers {
		a := make(answer, 0, len(m))
		for k, v := range m {
			a = append(a, binding{k, v})
		}
		sort.Slice(a, func(i, j int) bool { return a[i].name < a[j].name })
		got[a.key()] = true
	}
	for _, a := range want {
		if !got[a.key()] {
			return false
		}
	}
	return len(got) == len(want)
}

// reloadOK checks a /admin/reload response: a registry version past the
// startup one.
func reloadOK(body []byte) bool {
	var doc struct {
		Version *int64 `json:"version"`
	}
	return json.Unmarshal(body, &doc) == nil && doc.Version != nil && *doc.Version > 1
}
