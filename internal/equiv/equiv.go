// Package equiv implements the correctness framework of §3.4: every
// activity carries a post-condition predicate over its functionality-schema
// variables, a workflow's post-condition is the conjunction of its
// activities' predicates in execution order, and two states are equivalent
// when (a) the schema propagated to each target recordset is identical and
// (b) their post-conditions are equivalent.
//
// Alongside this symbolic ("black-box") check the package provides the
// empirical oracle: execute both workflows on the same input and compare
// the record multisets loaded into each target — "based on the same input,
// produce the same output" (§2.2).
package equiv

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"etlopt/internal/data"
	"etlopt/internal/engine"
	"etlopt/internal/workflow"
)

// Condition builds the workflow post-condition Cond_G (§3.4): the
// conjunction of node post-conditions arranged in execution order. Source
// recordsets contribute their schema predicate (e.g.
// PARTS1(PKEY,SOURCE,DATE,COST)), activities their semantics predicate
// over functionality-schema variables, and target recordsets their schema
// predicate.
func Condition(g *workflow.Graph) (string, error) {
	order, err := g.TopoSort()
	if err != nil {
		return "", err
	}
	var parts []string
	for _, id := range order {
		parts = append(parts, nodePredicate(g.Node(id)))
	}
	return strings.Join(parts, " ∧ "), nil
}

// nodePredicate renders one node's post-condition.
func nodePredicate(n *workflow.Node) string {
	if n.Kind == workflow.KindRecordset {
		return fmt.Sprintf("%s(%s)", n.RS.Name, n.RS.Schema)
	}
	return n.Act.Predicate()
}

// predicateMultiset collects the multiset of atomic predicates of a
// workflow: merged packages contribute each component separately, so MER
// and SPL preserve the multiset, and FAC/DIS contribute the factorized
// predicate once per occurrence — the conjunction p ∧ p is logically
// equivalent to p, so multiplicity of identical atoms is ignored by using
// a set per §3.4's conjunction semantics.
func predicateSet(g *workflow.Graph) (map[string]bool, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	for _, id := range order {
		n := g.Node(id)
		if n.Kind == workflow.KindRecordset {
			set[nodePredicate(n)] = true
			continue
		}
		for _, p := range atomicPredicates(n.Act) {
			set[p] = true
		}
	}
	return set, nil
}

// atomicPredicates expands an activity into its atomic post-conditions.
func atomicPredicates(a *workflow.Activity) []string {
	if a.Sem.Op == workflow.OpMerged {
		var out []string
		for _, comp := range a.Sem.Components {
			out = append(out, atomicPredicates(comp)...)
		}
		return out
	}
	return []string{a.Sem.String()}
}

// Equivalent implements the symbolic equivalence check of §3.4: two states
// are equivalent when the schema of the data propagated to each target
// recordset is identical and their workflow post-conditions are
// equivalent. Post-condition equivalence reduces to equality of the atomic
// predicate sets, since conjunction is commutative, associative and
// idempotent.
func Equivalent(g1, g2 *workflow.Graph) (bool, string, error) {
	// (a) Target schemata.
	t1, err := targetSchemas(g1)
	if err != nil {
		return false, "", err
	}
	t2, err := targetSchemas(g2)
	if err != nil {
		return false, "", err
	}
	if len(t1) != len(t2) {
		return false, fmt.Sprintf("different target counts: %d vs %d", len(t1), len(t2)), nil
	}
	for _, name := range sortedKeys(t1) {
		s1 := t1[name]
		s2, ok := t2[name]
		if !ok {
			return false, fmt.Sprintf("target %s missing from second workflow", name), nil
		}
		if !s1.SameSet(s2) {
			return false, fmt.Sprintf("target %s schemas differ: {%s} vs {%s}", name, s1, s2), nil
		}
	}
	// (b) Post-conditions.
	p1, err := predicateSet(g1)
	if err != nil {
		return false, "", err
	}
	p2, err := predicateSet(g2)
	if err != nil {
		return false, "", err
	}
	if diff := setDiff(p1, p2); diff != "" {
		return false, "post-conditions differ: " + diff, nil
	}
	return true, "", nil
}

// targetSchemas maps each target recordset name to the schema its provider
// delivers.
func targetSchemas(g *workflow.Graph) (map[string]data.Schema, error) {
	out := make(map[string]data.Schema)
	for _, id := range g.Targets() {
		n := g.Node(id)
		if len(n.In) == 1 {
			out[n.RS.Name] = n.In[0]
		} else {
			out[n.RS.Name] = n.RS.Schema
		}
	}
	return out, nil
}

// sortedKeys returns a map's keys in sorted order, so diagnostics that
// report the first mismatching target are deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// setDiff describes the symmetric difference of two predicate sets, or ""
// when equal.
func setDiff(a, b map[string]bool) string {
	var only1, only2 []string
	for p := range a {
		if !b[p] {
			only1 = append(only1, p)
		}
	}
	for p := range b {
		if !a[p] {
			only2 = append(only2, p)
		}
	}
	if len(only1) == 0 && len(only2) == 0 {
		return ""
	}
	sort.Strings(only1)
	sort.Strings(only2)
	return fmt.Sprintf("only in first: %v; only in second: %v", only1, only2)
}

// VerifyEmpirical executes both workflows on the same bindings and reports
// whether every target receives the same record multiset — the operational
// definition of equivalent states (§2.2). Targets are compared by name; a
// non-nil error means an execution failed, while ok=false with a diff
// means both ran and disagreed.
//
// The second workflow is additionally executed at four partitions and
// held to the engine's stronger contract: bit-identical target rows —
// same order, same values — against its own P=1 run. This folds the
// partitioned operators into every empirical equivalence check the test
// suite performs.
func VerifyEmpirical(g1, g2 *workflow.Graph, bindings map[string]data.Recordset) (bool, string, error) {
	e := engine.New(bindings)
	r1, err := e.Run(context.Background(), g1)
	if err != nil {
		return false, "", fmt.Errorf("equiv: running first workflow: %w", err)
	}
	r2, err := e.Run(context.Background(), g2)
	if err != nil {
		return false, "", fmt.Errorf("equiv: running second workflow: %w", err)
	}
	if len(r1.Targets) != len(r2.Targets) {
		return false, fmt.Sprintf("different target sets: %v vs %v", r1.SortTargets(), r2.SortTargets()), nil
	}
	for _, name := range sortedKeys(r1.Targets) {
		rows1 := r1.Targets[name]
		rows2, ok := r2.Targets[name]
		if !ok {
			return false, fmt.Sprintf("target %s missing from second run", name), nil
		}
		if !rows1.EqualMultiset(rows2) {
			diffs := rows1.DiffMultiset(rows2, 5)
			return false, fmt.Sprintf("target %s differs (%d vs %d rows): %s",
				name, len(rows1), len(rows2), strings.Join(diffs, "; ")), nil
		}
	}
	ep := engine.New(bindings, engine.WithPartitions(4))
	rp, err := ep.Run(context.Background(), g2)
	if err != nil {
		return false, "", fmt.Errorf("equiv: running second workflow at P=4: %w", err)
	}
	for _, name := range sortedKeys(r2.Targets) {
		if diff := identicalDiff(r2.Targets[name], rp.Targets[name]); diff != "" {
			return false, fmt.Sprintf("target %s: P=4 run not bit-identical to P=1: %s",
				name, diff), nil
		}
	}
	return true, "", nil
}

// identicalDiff describes the first divergence between two row slices
// under bit-identity (order-sensitive), or "" when identical. Both slices
// come straight from in-process engine runs, so the canonical typed digest
// is sound here: equal digests prove identity in one pass, and the per-row
// key scan only runs to describe a divergence.
func identicalDiff(a, b data.Rows) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d rows", len(a), len(b))
	}
	if a.Digest() == b.Digest() {
		return ""
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			return fmt.Sprintf("row %d: %s vs %s", i, a[i], b[i])
		}
	}
	return ""
}
