package main

import (
	"context"
	"crypto/sha256"
	"path/filepath"
	"testing"

	"wdpt"
)

// smallSizes keep the checker tests fast while exercising every request
// kind.
var smallSizes = sizes{layers: 5, perLayer: 6, outDeg: 2, depth: 3, bands: 8, records: 3}

// smallWorkload builds a small instance of the named workload; on the graph
// it removes the successors of a few vertices, so that some chains stop
// before their last OPT node and some start vertices match nothing.
func smallWorkload(t *testing.T, name string, seed int64) *workload {
	t.Helper()
	w, err := buildWorkload(name, seed, smallSizes)
	if err != nil {
		t.Fatal(err)
	}
	if w.g != nil {
		w.g.succ[0][0] = nil
		w.g.succ[1][1] = nil
		w.g.succ[2][2] = nil
		w.g.index()
		w.files[dsGraph] = w.g.text()
	}
	return w
}

// TestCheckerAgreesWithSolve: on small generated instances, the checker's
// expected bodies are byte-identical to what wdpt's Solve and the report
// encoder produce for every distinct request of every workload.
func TestCheckerAgreesWithSolve(t *testing.T) {
	checked := map[string]int{}
	for _, name := range workloadNames {
		for seed := int64(1); seed <= 3; seed++ {
			w := smallWorkload(t, name, seed)
			dbs := map[string]*wdpt.Database{}
			for ds, data := range w.files {
				d, err := wdpt.ParseDatabase(string(data))
				if err != nil {
					t.Fatal(err)
				}
				dbs[ds] = d
			}
			for i, r := range w.reqs {
				if r.kind == kindReload || i >= 300 {
					continue
				}
				q, err := parseQuery(r.query)
				if err != nil {
					t.Fatalf("%s: %v", r.query, err)
				}
				opts := wdpt.SolveOptions{Mode: solveModes[r.mode], Engine: wdpt.AutoEngine(), Parallelism: 1}
				if r.mode != "enumerate" {
					opts.Mapping = wdpt.Mapping(r.mapping)
				}
				res, err := q.Solve(context.Background(), dbs[r.dataset], opts)
				if err != nil {
					t.Fatalf("%s: %v", r.query, err)
				}
				body, err := encodeResult(r.mode, res)
				if err != nil {
					t.Fatal(err)
				}
				if sha256.Sum256(body) != expect(w, r).digest {
					t.Fatalf("%s %s %v: checker disagrees with Solve; Solve gave\n%s", name, r.query, r.mapping, body)
				}
				if !sameAnswers(w, r, body) {
					t.Fatalf("%s %s: sameAnswers rejects Solve's body", name, r.query)
				}
				checked[r.kind]++
			}
		}
	}
	for _, k := range []string{kindChain, kindUnion, kindLookup, kindExact, kindMax, kindPart} {
		if checked[k] == 0 {
			t.Errorf("no %s request was checked", k)
		}
	}
}

// TestDecisionsBothWays: the candidates make every decision kind come out
// both true and false, so a checker stuck on one verdict would show.
func TestDecisionsBothWays(t *testing.T) {
	verdicts := map[string]map[bool]int{}
	w, _ := buildWorkload("lookup", 1, fullSizes)
	for _, r := range w.reqs[:2000] {
		if r.mode == "enumerate" {
			continue
		}
		if verdicts[r.kind] == nil {
			verdicts[r.kind] = map[bool]int{}
		}
		verdicts[r.kind][decide(w, r)]++
	}
	for _, k := range []string{kindExact, kindMax, kindPart} {
		if verdicts[k][true] == 0 || verdicts[k][false] == 0 {
			t.Errorf("%s verdicts %v, want both", k, verdicts[k])
		}
	}
}

// TestSameAnswersRejectsWrongBodies: the content comparison catches a
// missing answer, an extra binding and a flipped verdict.
func TestSameAnswersRejectsWrongBodies(t *testing.T) {
	w := smallWorkload(t, "enumerate", 1)
	var r *request
	for _, c := range w.reqs {
		if c.kind == kindChain && len(expectedAnswers(w, c)) > 1 {
			r = c
			break
		}
	}
	answers := expectedAnswers(w, r)
	if !sameAnswers(w, r, renderBody(r.mode, answers, nil)) {
		t.Fatal("the rendered expectation is rejected")
	}
	if sameAnswers(w, r, renderBody(r.mode, answers[1:], nil)) {
		t.Error("a body missing an answer is accepted")
	}
	extra := append([]answer{append(answer{{"w", "v"}}, answers[0]...)}, answers[1:]...)
	if sameAnswers(w, r, renderBody(r.mode, extra, nil)) {
		t.Error("a body with an extra binding is accepted")
	}

	w = smallWorkload(t, "lookup", 1)
	for _, c := range w.reqs {
		if c.mode != "enumerate" {
			flipped := !decide(w, c)
			if sameAnswers(w, c, renderBody(c.mode, nil, &flipped)) {
				t.Errorf("a flipped %s verdict is accepted", c.kind)
			}
			break
		}
	}
}

// TestReplaySmall runs the traced replay on small instances: its answers
// and counters must match the unwrapped Solve and every per-layer metric
// must be reported.
func TestReplaySmall(t *testing.T) {
	for _, name := range workloadNames {
		w := smallWorkload(t, name, 2)
		exp := make([]expectation, len(w.reqs))
		for i, r := range w.reqs {
			if r.kind != kindReload {
				exp[i] = expect(w, r)
			}
		}
		specs, err := w.writeFiles(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		out, err := replay(w, exp, specs, filepath.Join(t.TempDir(), "spans.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.failures) > 0 {
			t.Errorf("%s: %v", name, out.failures)
		}
		if len(out.metrics) != 24 {
			t.Errorf("%s: %d replay metrics", name, len(out.metrics))
		}
	}
}
