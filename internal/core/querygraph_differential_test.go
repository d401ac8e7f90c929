package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"gqa/internal/core"
	"gqa/internal/dict"
	"gqa/internal/linker"
	"gqa/internal/nlp"
)

// differQueryGraph describes how BuildQueryGraph and the parent's differ on
// question q — every vertex (argument, candidates, flags) and edge
// (endpoints, phrase pointer, candidates) compared with reflect.DeepEqual —
// or reports false. A candidate list must also have its length as its
// capacity. Questions the parser or Algorithm 2 has nothing for are equal.
func differQueryGraph(q string, d *dict.Dictionary, lk *linker.Linker) (string, bool) {
	y, err := nlp.Parse(q)
	if err != nil {
		return "", false
	}
	rels := core.ExtractRelations(y, d, core.ExtractOptions{})
	if len(rels) == 0 {
		return "", false
	}
	got := core.BuildQueryGraph(y, rels, lk, core.BuildOptions{})
	want := core.ReferenceQueryGraph(y, rels, lk, core.BuildOptions{})
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("\n got  %s %+v\n want %s %+v", got, *got, want, *want), true
	}
	for _, v := range got.Vertices {
		if cap(v.Candidates) != len(v.Candidates) {
			return fmt.Sprintf("vertex %q: %d candidates, capacity %d", v.Arg.Text, len(v.Candidates), cap(v.Candidates)), true
		}
	}
	for _, e := range got.Edges {
		if cap(e.Candidates) != len(e.Candidates) {
			return fmt.Sprintf("edge %q: %d candidates, capacity %d", e.Phrase.Text, len(e.Candidates), cap(e.Candidates)), true
		}
	}
	return "", false
}

// TestQueryGraphMatchesReferenceOnWorkloads: on every question of the four
// workloads, BuildQueryGraph builds the parent's Q^S.
func TestQueryGraphMatchesReferenceOnWorkloads(t *testing.T) {
	for _, set := range questionSets(t) {
		lk := linker.New(set.g, linker.Options{})
		for _, q := range set.questions {
			if d, bad := differQueryGraph(q.Text, set.d, lk); bad {
				t.Errorf("%s: %q:%s", set.name, q.Text, d)
			}
		}
		t.Logf("%s: %d questions", set.name, len(set.questions))
	}
}
