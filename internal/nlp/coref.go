package nlp

// ResolveCoref performs the coreference resolution step of §4.1.3: relative
// pronouns ("that", "who", "which") inside a relative clause refer to the
// noun phrase the clause modifies, so the two corresponding arguments must
// share one vertex in the semantic query graph ("actor" and "that" in the
// running example).
//
// The returned map sends the token index of each resolvable pronoun to the
// token index of its antecedent. It is nil when no pronoun corefers.
func ResolveCoref(y *DepTree) map[int]int {
	var out map[int]int
	var buf [64]bool
	in := scratch(buf[:], len(y.Nodes))
	for i := range y.Nodes {
		n := &y.Nodes[i]
		if n.Rel != RelRcmod || n.Head < 0 {
			continue
		}
		antecedent := n.Head
		// Every wh-pronoun inside the clause subtree corefers with the
		// antecedent.
		clear(in)
		y.mark(i, in)
		for j, ok := range in {
			if t := &y.Nodes[j]; ok && (t.Tag == "WDT" || t.Tag == "WP") && j != antecedent {
				if out == nil {
					out = make(map[int]int)
				}
				out[j] = antecedent
			}
		}
	}
	return out
}
