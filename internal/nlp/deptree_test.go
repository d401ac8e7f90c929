package nlp

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// Subtree returns all node indices in the subtree rooted at i (including
// i), ascending.
func (y *DepTree) Subtree(i int) []int {
	var buf [64]bool
	in := scratch(buf[:], len(y.Nodes))
	out := make([]int, 0, y.mark(i, in))
	for j, ok := range in {
		if ok {
			out = append(out, j)
		}
	}
	return out
}

// SubtreeText returns the surface text of the subtree rooted at i in
// sentence order ("the former Dutch queen").
func (y *DepTree) SubtreeText(i int) string {
	idx := y.Subtree(i)
	words := make([]string, len(idx))
	for k, j := range idx {
		words[k] = y.Nodes[j].Text
	}
	return strings.Join(words, " ")
}

// buildTree constructs a tree by hand for structural tests, finishing it
// as the parser does: heads first, then children filled from them.
func buildTree(words []string, heads []int, rels []string) *DepTree {
	y := &DepTree{Nodes: make([]Node, len(words))}
	for i, w := range words {
		y.Nodes[i] = Node{
			Token: Token{Index: i, Text: w, Lower: strings.ToLower(w)},
			Head:  -1,
		}
	}
	for i, h := range heads {
		if h == -1 {
			y.Root = i
			y.Nodes[i].Rel = RelRoot
			continue
		}
	}
	for i, h := range heads {
		if h >= 0 {
			y.attach(i, h, rels[i])
		}
	}
	y.fillChildren()
	return y
}

func TestValidateAcceptsGoodTree(t *testing.T) {
	y := buildTree(
		[]string{"Who", "created", "Minecraft"},
		[]int{1, -1, 1},
		[]string{RelNsubj, "", RelDobj},
	)
	if err := y.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadTrees(t *testing.T) {
	// Two roots.
	y := buildTree([]string{"a", "b"}, []int{-1, -1}, []string{"", ""})
	if err := y.Validate(); err == nil {
		t.Fatal("two-root tree accepted")
	}
	// Self-loop.
	y = buildTree([]string{"a", "b"}, []int{-1, 1}, []string{"", RelDep})
	y.Nodes[1].Head = 1
	if err := y.Validate(); err == nil {
		t.Fatal("self-loop accepted")
	}
	// Empty.
	empty := &DepTree{}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty tree accepted")
	}
	// Cycle disconnected from root.
	y = buildTree([]string{"a", "b", "c"}, []int{-1, 2, 1}, []string{"", RelDep, RelDep})
	if err := y.Validate(); err == nil {
		t.Fatal("cyclic tree accepted")
	}
	// Children that are not the heads read backwards: a child listed
	// twice, a list out of order, a child listed under a head it left.
	y = buildTree([]string{"a", "b", "c"}, []int{-1, 0, 0}, []string{"", RelDep, RelDep})
	y.Nodes[0].Children = []int{1, 1, 2}
	if err := y.Validate(); err == nil {
		t.Fatal("child listed twice accepted")
	}
	y.Nodes[0].Children = []int{2, 1}
	if err := y.Validate(); err == nil {
		t.Fatal("descending children accepted")
	}
	y = buildTree([]string{"a", "b", "c"}, []int{-1, 0, 1}, []string{"", RelDep, RelDep})
	y.Nodes[0].Children = []int{1, 2}
	if err := y.Validate(); err == nil {
		t.Fatal("stale child accepted")
	}
}

// TestFillChildrenSlab: the hand-built trees get their children as the
// parser's do, ascending, each list's capacity its length, nil for a leaf.
func TestFillChildrenSlab(t *testing.T) {
	y := buildTree(
		[]string{"Who", "created", "the", "game"},
		[]int{1, -1, 3, 1},
		[]string{RelNsubj, "", RelDet, RelDobj},
	)
	for i, want := range [][]int{nil, {0, 3}, nil, {2}} {
		got := y.Nodes[i].Children
		if !slices.Equal(got, want) || (got == nil) != (want == nil) || cap(got) != len(got) {
			t.Errorf("node %d: children %v (capacity %d), want %v", i, got, cap(got), want)
		}
	}
}

func TestSubtreeOrderAndContent(t *testing.T) {
	// created(Who, Minecraft) — subtree of root is everything.
	y := buildTree(
		[]string{"Who", "created", "the", "game"},
		[]int{1, -1, 3, 1},
		[]string{RelNsubj, "", RelDet, RelDobj},
	)
	got := y.Subtree(1)
	if len(got) != 4 {
		t.Fatalf("root subtree size %d", len(got))
	}
	got = y.Subtree(3)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("NP subtree = %v", got)
	}
	if y.SubtreeText(3) != "the game" {
		t.Fatalf("SubtreeText = %q", y.SubtreeText(3))
	}
}

// treeString renders the tree one dependency per line, in the conventional
// rel(head-h, dependent-d) notation, for failure messages.
func treeString(y *DepTree) string {
	var b strings.Builder
	for i, n := range y.Nodes {
		if n.Head == -1 {
			fmt.Fprintf(&b, "root(ROOT-0, %s-%d)\n", n.Text, i+1)
			continue
		}
		fmt.Fprintf(&b, "%s(%s-%d, %s-%d)\n", n.Rel, y.Nodes[n.Head].Text, n.Head+1, n.Text, i+1)
	}
	return b.String()
}

func TestSubjectObjectRelClassifiers(t *testing.T) {
	for _, r := range []string{RelNsubj, RelNsubjPass, "csubj", "xsubj", RelPoss} {
		if !IsSubjectRel(r) {
			t.Errorf("%s should be subject-like", r)
		}
	}
	for _, r := range []string{RelDobj, RelPobj, RelIobj, "obj"} {
		if !IsObjectRel(r) {
			t.Errorf("%s should be object-like", r)
		}
	}
	if IsSubjectRel(RelDet) || IsObjectRel(RelPrep) {
		t.Error("det/prep must not be argument relations")
	}
}

// TestResolveCorefNestedClauses: a relative clause inside another ("an
// actor who played a film that won"): each pronoun corefers with the noun
// its own clause modifies, the inner clause's pronoun being in both
// clauses' subtrees and the later clause winning, as before.
func TestResolveCorefNestedClauses(t *testing.T) {
	y := buildTree(
		[]string{"actor", "who", "played", "film", "that", "won"},
		[]int{-1, 2, 0, 2, 5, 3},
		[]string{"", RelNsubj, RelRcmod, RelDobj, RelNsubj, RelRcmod},
	)
	y.Nodes[1].Tag, y.Nodes[4].Tag = "WP", "WDT"
	want := map[int]int{1: 0, 4: 3}
	if got := ResolveCoref(y); !maps.Equal(got, want) {
		t.Fatalf("coref %v, want %v", got, want)
	}
	if got := refResolveCoref(y); !maps.Equal(got, want) {
		t.Fatalf("the parent's coref %v, want %v", got, want)
	}
}

func TestResolveCorefNoClauses(t *testing.T) {
	y := buildTree(
		[]string{"Who", "created", "Minecraft"},
		[]int{1, -1, 1},
		[]string{RelNsubj, "", RelDobj},
	)
	if got := ResolveCoref(y); got != nil {
		t.Fatalf("unexpected coref: %v", got)
	}
}
