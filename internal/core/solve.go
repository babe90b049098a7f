package core

import (
	"context"
	"fmt"

	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
	"wdpt/internal/par"
)

// This file is the consolidated entry point for every WDPT evaluation
// problem of Section 3. Solve subsumes the historical per-problem functions
// (Evaluate, EvaluateMaximal, Eval, EvalInterface, PartialEval, MaxEval,
// EvaluateWith), which survive as thin deprecated wrappers; new callers and
// new evaluation variants go through Solve so that context cancellation,
// engine selection, observability, parallelism, and resource budgets are
// configured in one place (wdptlint rule R7 enforces this for future
// exported functions).
//
// Determinism contract: for every mode and every Parallelism level the
// returned answers are byte-identical, and at Parallelism ≤ 1 the counter
// totals on SolveOptions.Stats equal the historical sequential totals
// exactly. Parallel fan-outs only cover work whose operation set is
// order-independent, so all non-par.* counters stay level-independent too.
// With no Budget set and a non-cancellable context, no guard meter exists,
// so the guardrails add nothing to answers or counters.
//
// Robustness contract (docs/ROBUSTNESS.md): Solve never panics — engine
// bugs, budget trips, and injected faults are recovered at this boundary
// into *guard.TripError values — and with Fallback set, a budget trip on a
// decision mode retries down the paper's tractability ladder
// (exact → maximal → partial; Theorems 8–9) instead of failing.

// Mode selects which evaluation problem Solve decides or computes.
type Mode int

const (
	// ModeEnumerate computes p(D), the set of maximal-homomorphism
	// projections of Definition 2.
	ModeEnumerate Mode = iota
	// ModeMaximal computes p_m(D): p(D) restricted to ⊑-maximal mappings
	// (Section 3.4).
	ModeMaximal
	// ModeExact decides h ∈ p(D) with the interface-relation algorithm of
	// Theorem 6 (polynomial on locally tractable trees of bounded
	// interface).
	ModeExact
	// ModeExactNaive decides h ∈ p(D) with the band-enumeration baseline
	// (correct everywhere, exponential in |p|). It uses the backtracking
	// homomorphism solver directly and ignores SolveOptions.Engine.
	ModeExactNaive
	// ModePartial decides PARTIAL-EVAL: h ⊑ h' for some h' ∈ p(D)
	// (Theorem 8).
	ModePartial
	// ModeMax decides MAX-EVAL: h ∈ p_m(D) (Theorem 9).
	ModeMax
)

// String returns the mode's stable name (the wdpteval -mode vocabulary).
func (m Mode) String() string {
	switch m {
	case ModeEnumerate:
		return "enumerate"
	case ModeMaximal:
		return "maximal"
	case ModeExact:
		return "exact"
	case ModeExactNaive:
		return "exact-naive"
	case ModePartial:
		return "partial"
	case ModeMax:
		return "max"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// FallbackLadder returns the degradation ladder for a mode: the weaker
// modes Solve retries, in order, when a budget trips and Fallback is set.
// The ladder follows the paper's tractability results — EVAL is
// Σ₂ᴾ-complete in general (Proposition 3) while MAX-EVAL and PARTIAL-EVAL
// stay in LOGCFL on globally tractable trees (Theorems 9 and 8) — so each
// hop trades answer precision for a strictly cheaper complexity class. The
// enumeration modes have no ladder (their truncation path is the answer
// cap, which keeps the partial answer set instead of retrying).
func FallbackLadder(m Mode) []Mode {
	switch m {
	case ModeExact, ModeExactNaive:
		return []Mode{ModeMax, ModePartial}
	case ModeMax:
		return []Mode{ModePartial}
	}
	return nil
}

// SolveOptions configures one Solve call. The zero value enumerates p(D)
// sequentially with the naive homomorphism solver, no observability, and no
// resource limits.
type SolveOptions struct {
	// Mode selects the problem; see the Mode constants.
	Mode Mode
	// Mapping is the candidate mapping h for the decision modes (ModeExact,
	// ModeExactNaive, ModePartial, ModeMax); ignored by the enumeration
	// modes.
	Mapping cq.Mapping
	// Engine evaluates the node-level conjunctive queries. nil selects the
	// historical default for the mode: the backtracking solver for the
	// enumeration modes and ModeExactNaive, cqeval.Auto() for the other
	// decision modes.
	Engine cqeval.Engine
	// Stats receives work counters. nil falls back to the sink carried by
	// Engine (cqeval.WithStats); if both are set and differ, Stats wins and
	// the engine is rewired onto it.
	Stats *obs.Stats
	// Parallelism bounds the worker goroutines; values ≤ 1 run the exact
	// sequential legacy code paths and record no par.* counters.
	Parallelism int
	// Budget bounds each evaluation attempt (wall clock, intermediate
	// tuples, answers); see guard.Budget. The zero value imposes no limits.
	// Each attempt of the fallback ladder gets the full budget afresh.
	Budget guard.Budget
	// Fallback retries a budget-tripped decision mode down the degradation
	// ladder (FallbackLadder) and marks answer-capped enumerations Degraded
	// instead of returning guard.ErrAnswerLimit.
	Fallback bool
	// Meter shares an external guard meter across several Solve calls — one
	// budget for a whole union evaluation rather than per member. When set,
	// Budget is ignored and the fallback ladder is driven by the outermost
	// caller (Union.Solve), not per call.
	Meter *guard.Meter
}

// Result is the outcome of a Solve call: Answers for the enumeration modes,
// Holds for the decision modes.
type Result struct {
	// Answers is the enumerated answer set (enumeration modes only).
	Answers []cq.Mapping
	// Holds is the decision-mode verdict.
	Holds bool
	// Degraded reports that the result carries weaker semantics than the
	// requested mode: a fallback-ladder hop succeeded after a budget trip,
	// or the enumeration was truncated at Budget.MaxAnswers.
	Degraded bool
	// DegradedMode is the mode whose semantics the result actually carries
	// when Degraded (the successful rung of the ladder, or the truncated
	// enumeration mode itself).
	DegradedMode Mode
}

// Solve runs the selected evaluation problem over d. It returns an error
// when ctx is cancelled, when opts.Mode is unknown, or when a resource
// budget trips without a fallback; budget trips, injected faults, and
// recovered panics all surface as *guard.TripError values (errors.Is
// against guard.ErrDeadline, guard.ErrTupleBudget, guard.ErrAnswerLimit,
// guard.ErrInjected, guard.ErrPanic). Solve never panics: any panic below
// this boundary is recovered into an error. A nil ctx is treated as
// context.Background().
func (p *PatternTree) Solve(ctx context.Context, d *db.Database, opts SolveOptions) (res Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := opts.Stats
	if st == nil {
		st = cqeval.StatsOf(opts.Engine)
	}
	defer func() {
		// The boundary backstop: solveAttempt recovers evaluation panics, so
		// this only fires for bugs in the orchestration itself.
		if r := recover(); r != nil {
			res, err = Result{}, guard.AsError(r, st)
		}
	}()
	if opts.Meter != nil {
		// An external meter means an outer caller owns budget and ladder.
		return p.solveAttempt(ctx, d, opts.Mode, opts, st, opts.Meter)
	}
	res, err = p.solveAttempt(ctx, d, opts.Mode, opts, st, guard.NewMeter(ctx, opts.Budget, st))
	if err == nil || !opts.Fallback || !guard.Degradable(err) {
		return res, err
	}
	for _, mode := range FallbackLadder(opts.Mode) {
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, cerr
		}
		st.Inc(obs.CtrGuardFallbackHops)
		res, err = p.solveAttempt(ctx, d, mode, opts, st, guard.NewMeter(ctx, opts.Budget, st))
		if err == nil {
			res.Degraded, res.DegradedMode = true, mode
			return res, nil
		}
		if !guard.Degradable(err) {
			return Result{}, err
		}
	}
	return Result{}, err
}

// solveAttempt runs one evaluation attempt of the given mode under the
// meter m, recovering any panic below it — budget trips, injected faults,
// engine bugs — into an error.
func (p *PatternTree) solveAttempt(ctx context.Context, d *db.Database, mode Mode, opts SolveOptions, st *obs.Stats, m *guard.Meter) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = Result{}, guard.AsError(r, st)
		}
	}()
	pool := par.New(opts.Parallelism, st)
	eng := opts.Engine
	if eng != nil {
		if opts.Stats != nil && cqeval.StatsOf(eng) != opts.Stats {
			eng = cqeval.WithStats(eng, opts.Stats)
		}
		eng = cqeval.WithMeter(cqeval.WithPool(eng, pool), m)
	}
	switch mode {
	case ModeEnumerate, ModeMaximal:
		answers, err := p.enumerateSolve(ctx, d, eng, st, pool, m)
		if err != nil {
			return Result{}, err
		}
		res = Result{Answers: p.answers(d, answers, mode == ModeMaximal)}
		if m.Truncated() {
			// The answer cap keeps the partial set: marked Degraded under
			// Fallback (or an outer shared-meter caller), paired with the
			// typed error otherwise — either way the answers survive.
			res.Degraded, res.DegradedMode = true, mode
			if opts.Fallback || opts.Meter != nil {
				return res, nil
			}
			return res, m.AnswerLimitError()
		}
		return res, nil
	case ModeExactNaive:
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		return Result{Holds: p.evalNaive(d, opts.Mapping, st, m)}, nil
	case ModeExact, ModePartial, ModeMax:
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if eng == nil {
			eng = cqeval.WithMeter(cqeval.WithPool(cqeval.WithStats(cqeval.Auto(), st), pool), m)
		}
		switch mode {
		case ModeExact:
			return Result{Holds: p.evalInterface(d, opts.Mapping, eng, st)}, nil
		case ModePartial:
			return Result{Holds: p.partialEval(d, opts.Mapping, eng)}, nil
		default:
			return Result{Holds: p.partialEval(d, opts.Mapping, eng) && !p.ProperExtensionExists(d, opts.Mapping, eng)}, nil
		}
	}
	return Result{}, fmt.Errorf("core: unknown solve mode %v", mode)
}
