package smutil

import (
	"slices"

	"dmx/internal/core"
	"dmx/internal/expr"
)

// textbookSelectivity is the statistics-free guess for one conjunct: 10%
// for an equality, 30% for a range comparison, 50% otherwise.
func textbookSelectivity(c *expr.Expr) float64 {
	if fc, ok := expr.MatchFieldCompare(c); ok {
		if fc.Op == expr.OpEq {
			return 0.1
		}
		return 0.3
	}
	return 0.5
}

// ConjunctSelectivity returns the planner-estimated selectivity for
// conjunct i of req — the statistics-derived figure when the planner
// supplied one, else the textbook guess.
func ConjunctSelectivity(req core.CostRequest, i int) float64 {
	if i < len(req.ConjunctSel) && req.ConjunctSel[i] >= 0 {
		return req.ConjunctSel[i]
	}
	return textbookSelectivity(req.Conjuncts[i])
}

// RequestSelectivity returns the combined selectivity of every conjunct in
// req (independence assumption: the product).
func RequestSelectivity(req core.CostRequest) float64 {
	sel := 1.0
	for i := range req.Conjuncts {
		sel *= ConjunctSelectivity(req, i)
	}
	return sel
}

// HandledSelectivity returns the combined selectivity of just the handled
// conjuncts (by index into req.Conjuncts).
func HandledSelectivity(req core.CostRequest, handled []int) float64 {
	sel := 1.0
	for _, i := range handled {
		if i >= 0 && i < len(req.Conjuncts) {
			sel *= ConjunctSelectivity(req, i)
		}
	}
	return sel
}

// ResidualSelectivity returns the combined selectivity of the conjuncts
// NOT in handled — the fraction the executor's residual filter keeps.
func ResidualSelectivity(req core.CostRequest, handled []int) float64 {
	sel := 1.0
	for i := range req.Conjuncts {
		if !slices.Contains(handled, i) {
			sel *= ConjunctSelectivity(req, i)
		}
	}
	return sel
}
