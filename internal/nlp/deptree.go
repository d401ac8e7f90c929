package nlp

import (
	"fmt"
	"slices"
)

// Typed dependency labels, following the Stanford dependencies manual [8]
// as cited by the paper. Only the labels the Q/A pipeline consumes are
// enumerated; the parser never invents others.
const (
	RelRoot      = "root"
	RelNsubj     = "nsubj"
	RelNsubjPass = "nsubjpass"
	RelDobj      = "dobj"
	RelIobj      = "iobj"
	RelPobj      = "pobj"
	RelPrep      = "prep"
	RelAux       = "aux"
	RelAuxPass   = "auxpass"
	RelCop       = "cop"
	RelDet       = "det"
	RelAmod      = "amod"
	RelAdvmod    = "advmod"
	RelNn        = "nn"
	RelRcmod     = "rcmod"
	RelPoss      = "poss"
	RelCc        = "cc"
	RelConj      = "conj"
	RelAttr      = "attr"
	RelDep       = "dep"
)

// subjectRels are the subject-like grammatical relations of §4.1.2 used to
// recognize arg1.
var subjectRels = map[string]bool{
	"subj": true, RelNsubj: true, RelNsubjPass: true,
	"csubj": true, "csubjpass": true, "xsubj": true, RelPoss: true,
}

// objectRels are the object-like grammatical relations of §4.1.2 used to
// recognize arg2.
var objectRels = map[string]bool{
	"obj": true, RelPobj: true, RelDobj: true, RelIobj: true,
}

// IsSubjectRel reports whether rel is subject-like per §4.1.2.
func IsSubjectRel(rel string) bool { return subjectRels[rel] }

// IsObjectRel reports whether rel is object-like per §4.1.2.
func IsObjectRel(rel string) bool { return objectRels[rel] }

// Node is one vertex of a dependency tree: a token plus its grammatical
// attachment.
type Node struct {
	Token
	Head     int    // index of the head token; -1 for the root
	Rel      string // typed dependency to the head
	Children []int  // indices of dependents, ascending
}

// DepTree is the dependency tree Y of a question (§4.1). Nodes are indexed
// by token position; exactly one node has Head == -1.
type DepTree struct {
	Nodes []Node
	Root  int
}

// Size returns the number of nodes |Y|.
func (y *DepTree) Size() int { return len(y.Nodes) }

// Node returns the node at token index i.
func (y *DepTree) Node(i int) *Node { return &y.Nodes[i] }

// ChildrenOf returns the dependent indices of node i.
func (y *DepTree) ChildrenOf(i int) []int { return y.Nodes[i].Children }

// mark sets in[j] for every node j of the subtree rooted at i, following
// Children, and returns how many it set; in must be false throughout. A
// node is visited once, so a cycle in malformed input ends the walk.
func (y *DepTree) mark(i int, in []bool) int {
	var buf [32]int
	stack := append(buf[:0], i)
	in[i] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range y.Nodes[n].Children {
			if !in[c] {
				in[c] = true
				count++
				stack = append(stack, c)
			}
		}
	}
	return count
}

// scratch returns n zero values, in buf (which must be zero) when they fit.
func scratch[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// Validate checks tree well-formedness: exactly one root, Children that
// are the heads read backwards (each list strictly ascending, naming
// exactly the nodes whose Head is its owner), acyclicity, and every node
// reachable from the root.
func (y *DepTree) Validate() error {
	if len(y.Nodes) == 0 {
		return fmt.Errorf("deptree: empty tree")
	}
	roots := 0
	for i, n := range y.Nodes {
		if n.Index != i {
			return fmt.Errorf("deptree: node %d has Index %d", i, n.Index)
		}
		for k, c := range n.Children {
			if c < 0 || c >= len(y.Nodes) || y.Nodes[c].Head != i {
				return fmt.Errorf("deptree: node %d lists child %d, whose head is not %d", i, c, i)
			}
			if k > 0 && c <= n.Children[k-1] {
				return fmt.Errorf("deptree: children of node %d are not strictly ascending", i)
			}
		}
		if n.Head == -1 {
			roots++
			if i != y.Root {
				return fmt.Errorf("deptree: node %d is headless but Root is %d", i, y.Root)
			}
			continue
		}
		if n.Head < 0 || n.Head >= len(y.Nodes) {
			return fmt.Errorf("deptree: node %d has out-of-range head %d", i, n.Head)
		}
		if n.Head == i {
			return fmt.Errorf("deptree: node %d is its own head", i)
		}
		if !slices.Contains(y.Nodes[n.Head].Children, i) {
			return fmt.Errorf("deptree: node %d missing from children of head %d", i, n.Head)
		}
	}
	if roots != 1 {
		return fmt.Errorf("deptree: %d roots, want 1", roots)
	}
	var buf [64]bool
	if got := y.mark(y.Root, scratch(buf[:], len(y.Nodes))); got != len(y.Nodes) {
		return fmt.Errorf("deptree: only %d of %d nodes reachable from root", got, len(y.Nodes))
	}
	return nil
}

// attach links child to head with the given relation. Children are
// filled from the heads once the parse ends (fillChildren), so a child
// attached twice is listed only under its last head.
func (y *DepTree) attach(child, head int, rel string) {
	n := &y.Nodes[child]
	n.Head = head
	n.Rel = rel
}

// fillChildren sets the Children of a tree whose nodes have none yet from
// the heads: the nodes whose Head is it, ascending. The lists share one
// slab, each with its length as its capacity, so an append to one cannot
// write into the next; a leaf's stays nil. Heads out of range are skipped
// (Validate names them).
func (y *DepTree) fillChildren() {
	n := len(y.Nodes)
	var buf [65]int
	end := scratch(buf[:], n+1) // end[h+1]: where h's list ends in the slab
	for i := range y.Nodes {
		if h := y.Nodes[i].Head; h >= 0 && h < n {
			end[h+1]++
		}
	}
	for h := range n {
		end[h+1] += end[h]
	}
	if end[n] == 0 {
		return
	}
	slab := make([]int, end[n])
	for i := range y.Nodes {
		if h := y.Nodes[i].Head; h >= 0 && h < n {
			slab[end[h]] = i
			end[h]++
		}
	}
	// Each end[h] has moved up to where h's list ends; h's list starts
	// where h-1's ends.
	start := 0
	for h := range y.Nodes {
		if stop := end[h]; stop > start {
			y.Nodes[h].Children = slab[start:stop:stop]
			start = stop
		}
	}
}
