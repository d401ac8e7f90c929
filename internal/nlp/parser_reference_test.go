package nlp

// The parser as it was before its tree's children were filled from the
// heads in one slab, verbatim but for the names: its tokenizer (refTokenize,
// which built each word rune by rune), its attach (which kept every head's
// Children sorted as it went, so a re-attached child stayed listed under its
// old head), Subtree and Validate (a map and a closure per walk), and
// ResolveCoref (a map per call). The helpers the rewrite left alone
// (npInternal, headCandidate, npContinues, isAbbrevSoFar, the chunk and
// clauseSpan types) are shared. reference_test.go compares the two.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// refTokenize splits a question into tokens. Punctuation is dropped except
// that it delimits words; possessive "'s" becomes its own token (tag POS);
// hyphenated words are kept whole.
func refTokenize(s string) []Token {
	var toks []Token
	add := func(w string) {
		if w == "" {
			return
		}
		toks = append(toks, Token{Index: len(toks), Text: w, Lower: strings.ToLower(w)})
	}
	var cur strings.Builder
	flush := func() {
		w := cur.String()
		cur.Reset()
		if w == "" {
			return
		}
		// Split possessive and common contractions.
		lower := strings.ToLower(w)
		switch {
		case strings.HasSuffix(lower, "'s") && len(w) > 2:
			add(w[:len(w)-2])
			add(w[len(w)-2:])
		case strings.HasSuffix(lower, "n't") && len(w) > 3:
			add(w[:len(w)-3])
			add("not")
		default:
			add(w)
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(r)
		case r == '\'':
			cur.WriteRune(r)
		case r == '-' || r == '.' && cur.Len() > 0 && isAbbrevSoFar(cur.String()):
			// Keep hyphens inside words and dots inside abbreviations
			// like "U.S." or "J.F." so entity mentions survive.
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	// Strip a sentence-final period from the last token ("MI6." → "MI6")
	// while preserving internal abbreviation dots ("John F. Kennedy").
	if n := len(toks); n > 0 {
		t := &toks[n-1]
		if strings.HasSuffix(t.Text, ".") && !strings.Contains(strings.TrimSuffix(t.Text, "."), ".") {
			t.Text = strings.TrimSuffix(t.Text, ".")
			t.Lower = strings.ToLower(t.Text)
		}
	}
	return toks
}

// refParse tokenizes, tags and dependency-parses a question, returning its
// dependency tree Y. The grammar is a deterministic cascade over the
// interrogative constructions described in the package comment; it always
// produces a well-formed tree (worst case, unattachable tokens hang off the
// root with the generic "dep" relation, as the Stanford parser also does).
func refParse(question string) (*DepTree, error) { return refParseTokens(refTokenize(question)) }

// refParseTokens tags and dependency-parses a word list that is already split,
// with no re-tokenising: each token's Text and Lower are read, its Index,
// Tag and Lemma are assigned here. The tagger reads context, so a word list
// edited from a parsed tree is tagged afresh in its new positions.
func refParseTokens(toks []Token) (*DepTree, error) {
	for i := range toks {
		toks[i].Index = i
	}
	Tag(toks)
	if len(toks) == 0 {
		return nil, errors.New("nlp: empty question")
	}
	p := &refParser{toks: toks}
	tree := p.parse()
	if err := tree.refValidate(); err != nil {
		return nil, fmt.Errorf("nlp: internal parse inconsistency: %w", err)
	}
	return tree, nil
}

type refParser struct {
	toks    []Token
	tree    *DepTree
	chunks  []chunk
	chunkAt []int // token index → chunk index, or -1
}

func (p *refParser) parse() *DepTree {
	p.tree = &DepTree{Nodes: make([]Node, len(p.toks)), Root: -1}
	for i, t := range p.toks {
		p.tree.Nodes[i] = Node{Token: t, Head: -1}
	}
	p.findChunks()
	p.attachChunkInternals()

	// Split off trailing relative clauses, then parse main clause and each
	// relative clause.
	mainEnd, clauses := p.findClauses()
	rootMain := p.parseClause(0, mainEnd, -1)
	p.tree.Root = rootMain
	for _, cl := range clauses {
		crm := p.parseClause(cl.start, cl.end, cl.antecedent)
		if crm >= 0 && cl.antecedent >= 0 {
			p.tree.refAttach(crm, cl.antecedent, RelRcmod)
		} else if crm >= 0 && crm != rootMain {
			p.tree.refAttach(crm, rootMain, RelDep)
		}
	}
	// Guarantee a tree: anything still unattached hangs off the root.
	if p.tree.Root < 0 {
		p.tree.Root = 0
	}
	for i := range p.tree.Nodes {
		if i != p.tree.Root && p.tree.Nodes[i].Head == -1 {
			p.tree.refAttach(i, p.tree.Root, RelDep)
		}
	}
	root := &p.tree.Nodes[p.tree.Root]
	root.Head = -1
	root.Rel = RelRoot
	return p.tree
}

// ---------------------------------------------------------------- chunking

func (p *refParser) findChunks() {
	n := len(p.toks)
	p.chunkAt = make([]int, n)
	for i := range p.chunkAt {
		p.chunkAt[i] = -1
	}
	i := 0
	for i < n {
		t := p.toks[i]
		switch {
		case t.Tag == "WDT" && i+1 < n && npContinues(p.toks, i+1):
			// "which movies", "what country": determiner wh inside NP.
			j := p.extendNP(i + 1)
			p.addChunk(i, j, true)
			i = j + 1
		case t.Tag == "WP" || t.Tag == "WDT" || t.Tag == "WP$":
			// Bare wh-word (or relative pronoun) is its own chunk.
			p.addChunk(i, i, true)
			i++
		case t.Tag == "PRP":
			p.addChunk(i, i, false)
			i++
		case npInternal(t.Tag):
			// Don't open a chunk on a determiner/adjective with no noun
			// ahead ("How tall is …" — "tall" must stay unchunked so the
			// copular rule sees a predicative adjective).
			if !headCandidate(t.Tag) && !npContinues(p.toks, i+1) {
				i++
				continue
			}
			j := p.extendNP(i)
			p.addChunk(i, j, false)
			i = j + 1
		default:
			i++
		}
	}
}

// extendNP returns the last index of the NP chunk starting at i. A
// determiner or possessive can only open a chunk, never continue one, so
// "Michelle Obama the wife" splits into two chunks.
func (p *refParser) extendNP(i int) int {
	j := i
	for j+1 < len(p.toks) && npInternal(p.toks[j+1].Tag) {
		switch p.toks[j+1].Tag {
		case "DT", "PRP$", "WP$":
			return j
		}
		j++
	}
	return j
}

func (p *refParser) addChunk(start, end int, wh bool) {
	head := end
	for k := end; k >= start; k-- {
		if headCandidate(p.toks[k].Tag) && p.toks[k].Tag != "CD" {
			head = k
			break
		}
	}
	for k := start; k <= end; k++ {
		if p.toks[k].IsWh() {
			wh = true
		}
	}
	c := chunk{start: start, end: end, head: head, wh: wh}
	idx := len(p.chunks)
	p.chunks = append(p.chunks, c)
	for k := start; k <= end; k++ {
		p.chunkAt[k] = idx
	}
}

func (p *refParser) attachChunkInternals() {
	for _, c := range p.chunks {
		// A possessive marker makes the noun run before it a possessor:
		// "Angela Merkel 's birth name" → poss(name, Merkel). The
		// possessor's head is the last noun before 's.
		possEnd := -1 // index of the possessor head, if any
		for k := c.start; k <= c.end; k++ {
			if p.toks[k].Tag == "POS" && k > c.start && k < c.end {
				possEnd = k - 1
			}
		}
		for k := c.start; k <= c.end; k++ {
			if k == c.head {
				continue
			}
			rel := RelDep
			switch p.toks[k].Tag {
			case "DT", "WDT":
				rel = RelDet
			case "PRP$", "WP$", "POS":
				rel = RelPoss
			case "JJ", "JJR", "JJS", "CD":
				rel = RelAmod
			case "NN", "NNS", "NNP", "NNPS":
				rel = RelNn
			}
			head := c.head
			switch {
			case possEnd >= 0 && k == possEnd && k != c.head:
				rel = RelPoss // the possessor itself
			case possEnd >= 0 && k < possEnd:
				head = possEnd // material inside the possessor NP
			}
			p.tree.refAttach(k, head, rel)
		}
	}
}

// chunkOf returns the chunk containing token i, or nil.
func (p *refParser) chunkOf(i int) *chunk {
	if i < 0 || i >= len(p.chunkAt) || p.chunkAt[i] < 0 {
		return nil
	}
	return &p.chunks[p.chunkAt[i]]
}

// nextChunkAfter returns the first chunk starting at or after token i whose
// span lies within [i, end], or nil.
func (p *refParser) nextChunkAfter(i, end int) *chunk {
	for ci := range p.chunks {
		c := &p.chunks[ci]
		if c.start >= i && c.end <= end {
			return c
		}
	}
	return nil
}

// findClauses locates relative clauses (and reduced passives) so the main
// clause can be parsed without them. It returns the main clause end
// (exclusive) — conservatively the full sentence minus trailing clauses —
// and the clause spans.
func (p *refParser) findClauses() (int, []clauseSpan) {
	n := len(p.toks)
	var clauses []clauseSpan
	mainEnd := n
	for i := 1; i < n; i++ {
		t := p.toks[i]
		prev := p.chunkOf(i - 1)
		if prev == nil || prev.end != i-1 {
			continue
		}
		// Relative pronoun directly after an NP chunk, with a verb ahead:
		// "an actor that played in …", "people who live in …".
		if (t.Tag == "WDT" || t.Tag == "WP") && p.chunkOf(i) != nil && p.chunkOf(i).start == i && p.chunkOf(i).end == i {
			if p.verbAhead(i + 1) {
				clauses = append(clauses, clauseSpan{start: i, end: n, antecedent: prev.head})
				mainEnd = i
				break
			}
		}
		// Reduced relative: "launch pads operated by NASA", "movies
		// directed by Coppola", "films starring Marlon Brando".
		if t.Tag == "VBD" || t.Tag == "VBN" || t.Tag == "VBG" {
			if !p.isMainVerbCandidate(i) {
				clauses = append(clauses, clauseSpan{start: i, end: n, antecedent: prev.head})
				mainEnd = i
				break
			}
		}
	}
	return mainEnd, clauses
}

func (p *refParser) verbAhead(i int) bool {
	for ; i < len(p.toks); i++ {
		if IsVerbTag(p.toks[i].Tag) {
			return true
		}
	}
	return false
}

// isMainVerbCandidate reports whether the VBD/VBN at i plausibly heads the
// main clause rather than a reduced relative. Heuristic: it does when no
// other finite verb precedes it and the sentence has no auxiliary strategy
// in play, or when a be-auxiliary immediately governs it.
func (p *refParser) isMainVerbCandidate(i int) bool {
	// A be-form somewhere before with only nominal material between makes
	// this a passive main verb: "Who was married …", "In which city was
	// the queen buried?".
	for j := 0; j < i; j++ {
		if p.toks[j].Lemma == "be" && IsVerbTag(p.toks[j].Tag) {
			ok := true
			for k := j + 1; k < i; k++ {
				tag := p.toks[k].Tag
				if !npInternal(tag) && tag != "PRP" && tag != "WP" && tag != "WDT" && tag != "RB" {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
	}
	// No verb before it at all → it is the main verb ("Sean Parnell
	// founded …" style declaratives, "Who created …" wh-subjects).
	for j := 0; j < i; j++ {
		if IsVerbTag(p.toks[j].Tag) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------- clause parsing

// parseClause parses tokens [start, end) as one clause and returns the
// index of the clause root, or -1 for an empty span. antecedent >= 0 marks
// a relative clause whose pronoun refers to that token.
func (p *refParser) parseClause(start, end, antecedent int) int {
	if start >= end {
		return -1
	}
	// Gather verb tokens in the span.
	var verbs []int
	for i := start; i < end; i++ {
		if IsVerbTag(p.toks[i].Tag) || p.toks[i].Tag == "MD" {
			verbs = append(verbs, i)
		}
	}
	if len(verbs) == 0 {
		// Verbless fragment: root is the first chunk head.
		if c := p.nextChunkAfter(start, end-1); c != nil {
			return c.head
		}
		return start
	}

	// Split off a coordinated second verb group: "... born in Vienna and
	// died in Berlin". We parse [start, ccPos) then conj-attach the rest.
	ccPos := -1
	for i := start + 1; i < end-1; i++ {
		if p.toks[i].Tag == "CC" && p.verbAhead(i+1) && p.verbBetween(start, i) {
			ccPos = i
			break
		}
	}
	segEnd := end
	if ccPos >= 0 {
		segEnd = ccPos
	}

	root := p.parseSimpleClause(start, segEnd, antecedent)

	if ccPos >= 0 {
		conjRoot := p.parseSimpleClause(ccPos+1, end, -1)
		if conjRoot >= 0 && root >= 0 && conjRoot != root {
			p.tree.refAttach(conjRoot, root, RelConj)
			p.tree.refAttach(ccPos, root, RelCc)
		}
	}
	return root
}

func (p *refParser) verbBetween(start, end int) bool {
	for i := start; i < end; i++ {
		if IsVerbTag(p.toks[i].Tag) {
			return true
		}
	}
	return false
}

// parseSimpleClause handles a single verb group plus its arguments.
func (p *refParser) parseSimpleClause(start, end, antecedent int) int {
	var verbs []int
	for i := start; i < end; i++ {
		if IsVerbTag(p.toks[i].Tag) || p.toks[i].Tag == "MD" {
			verbs = append(verbs, i)
		}
	}
	if len(verbs) == 0 {
		if c := p.nextChunkAfter(start, end-1); c != nil {
			return c.head
		}
		return start
	}

	// Classify the verb group.
	var (
		root    = -1
		auxes   []int // (aux index, passive?) — passive decided below
		passive = false
		copular = false
		beIdx   = -1
	)
	// Main verb = last verb that is not an auxiliary use.
	last := verbs[len(verbs)-1]
	lastTok := p.toks[last]
	switch {
	case lastTok.Lemma == "be" && len(verbs) >= 1 && !p.hasVerbAfter(last, end):
		// be is the final verb → copular clause.
		copular = true
		beIdx = last
		for _, v := range verbs[:len(verbs)-1] {
			auxes = append(auxes, v)
		}
	case (lastTok.Tag == "VBN" || lastTok.Tag == "VBD") && p.hasBeBefore(verbs, last):
		passive = true
		root = last
		for _, v := range verbs {
			if v != last {
				auxes = append(auxes, v)
			}
		}
	default:
		root = last
		for _, v := range verbs {
			if v != last {
				auxes = append(auxes, v)
			}
		}
	}

	if copular {
		root = p.parseCopular(start, end, beIdx, auxes)
		return root
	}

	// Attach auxiliaries.
	for _, a := range auxes {
		rel := RelAux
		if passive && p.toks[a].Lemma == "be" {
			rel = RelAuxPass
		}
		p.tree.refAttach(a, root, rel)
	}

	subjRel := RelNsubj
	if passive {
		subjRel = RelNsubjPass
	}

	// Subject selection.
	firstAux := -1
	if len(auxes) > 0 {
		firstAux = auxes[0]
	}
	var subj *chunk
	var frontedWh *chunk
	if antecedent >= 0 {
		// Relative clause: pronoun chunk at span start is subject unless an
		// intervening NP exists before the verb ("the book that X wrote").
		pron := p.chunkOf(start)
		inner := p.firstChunkBetween(start+1, p.firstVerbIn(start, end))
		if inner != nil {
			subj = inner
			frontedWh = pron // pronoun fills object role
		} else {
			subj = pron
		}
	} else if firstAux >= 0 && firstAux < root {
		// Inversion: subject between aux and main verb.
		subj = p.firstChunkBetween(firstAux+1, root)
		// A wh-chunk before the aux is a fronted non-subject.
		if wc := p.firstChunkBetween(start, firstAux); wc != nil && wc.wh {
			frontedWh = wc
		}
		if subj == nil {
			// "Who did … marry?" with no NP between aux and verb can't
			// happen; but "When did Michael Jackson die?" has subj NP there.
			subj = frontedWh
			frontedWh = nil
		}
	} else {
		// Wh-subject or declarative: subject precedes the verb group.
		subj = p.lastChunkBefore(start, root)
		// Passive inversion without do-support: "In which city was the
		// queen buried?" — be before subject NP, root VBN after.
		if passive && subj != nil && subj.wh && len(auxes) > 0 && auxes[0] > subj.end {
			if s2 := p.firstChunkBetween(auxes[0]+1, root); s2 != nil {
				frontedWh = subj
				subj = s2
			}
		}
	}
	if subj != nil {
		p.tree.refAttach(subj.head, root, subjRel)
	}

	// Imperative object pattern: "Give me all movies …".
	searchFrom := root + 1
	if imperativeVerbs[p.toks[root].Lemma] && root == start {
		if c := p.chunkOf(root + 1); c != nil && p.toks[c.head].Tag == "PRP" {
			p.tree.refAttach(c.head, root, RelIobj)
			searchFrom = c.end + 1
		}
	}

	// Direct object: NP chunk immediately after the verb (not yet used,
	// not governed by a preposition).
	if c := p.chunkOf(searchFrom); c != nil && c.start == searchFrom && p.unattached(c.head) {
		p.tree.refAttach(c.head, root, RelDobj)
	}

	// Prepositions and their objects.
	p.attachPreps(start, end, root, frontedWh)

	// Fronted wh chunk that is still unattached becomes the direct object:
	// "Who did Amanda Palmer marry?".
	if frontedWh != nil && p.unattached(frontedWh.head) {
		p.tree.refAttach(frontedWh.head, root, RelDobj)
	}

	// Adverbial wh (when/where/how) attaches to the root.
	for i := start; i < end; i++ {
		if p.toks[i].Tag == "WRB" && p.unattached(i) && i != root {
			p.tree.refAttach(i, root, RelAdvmod)
		}
	}

	// NP coordination: an unattached NP chunk directly after "and"
	// following an attached NP conjoins with it ("Antonio Banderas and
	// Anthony Hopkins", "Vienna and Berlin").
	p.attachNPCoordination(start, end)
	return root
}

// attachNPCoordination links "X and Y" noun phrases with conj/cc edges.
func (p *refParser) attachNPCoordination(start, end int) {
	for i := start + 1; i < end-1; i++ {
		if p.toks[i].Tag != "CC" || !p.unattached(i) {
			continue
		}
		left := p.chunkOf(i - 1)
		right := p.chunkOf(i + 1)
		if left == nil || right == nil || left.end != i-1 || right.start != i+1 {
			continue
		}
		if p.unattached(left.head) || !p.unattached(right.head) {
			continue
		}
		p.tree.refAttach(right.head, left.head, RelConj)
		p.tree.refAttach(i, left.head, RelCc)
	}
}

// parseCopular parses "WH be NP", "be NP NP", "How JJ be NP", "NP be NP"
// clauses; the Stanford convention makes the predicate the root with a cop
// edge to be.
func (p *refParser) parseCopular(start, end, beIdx int, auxes []int) int {
	// Predicative adjective: "How tall is Michael Jordan?"
	for i := start; i < beIdx; i++ {
		if p.toks[i].Tag == "JJ" || p.toks[i].Tag == "JJS" || p.toks[i].Tag == "JJR" {
			if p.chunkOf(i) == nil { // not inside an NP
				root := i
				p.tree.refAttach(beIdx, root, RelCop)
				for _, a := range auxes {
					p.tree.refAttach(a, root, RelAux)
				}
				if subj := p.firstChunkBetween(beIdx+1, end); subj != nil {
					p.tree.refAttach(subj.head, root, RelNsubj)
				}
				for j := start; j < end; j++ {
					if p.toks[j].Tag == "WRB" && p.unattached(j) {
						p.tree.refAttach(j, root, RelAdvmod)
					}
				}
				p.attachPreps(start, end, root, nil)
				return root
			}
		}
	}

	before := p.lastChunkBefore(start, beIdx)
	after1 := p.firstChunkBetween(beIdx+1, end)
	var after2 *chunk
	if after1 != nil {
		after2 = p.firstChunkBetween(after1.end+1, end)
	}

	var subj, pred *chunk
	switch {
	case before != nil && after1 != nil:
		// "Who is the mayor of Berlin?" / "Sean Parnell is the governor of
		// which state?" — subject before be, predicate after.
		subj, pred = before, after1
	case before == nil && after1 != nil && after2 != nil:
		// Yes/no inversion: "Is Michelle Obama the wife of Barack Obama?"
		subj, pred = after1, after2
	case after1 != nil:
		subj, pred = nil, after1
	case before != nil:
		subj, pred = nil, before
	default:
		return beIdx
	}
	root := pred.head
	p.tree.refAttach(beIdx, root, RelCop)
	for _, a := range auxes {
		p.tree.refAttach(a, root, RelAux)
	}
	if subj != nil {
		p.tree.refAttach(subj.head, root, RelNsubj)
	}
	p.attachPreps(start, end, root, nil)
	for j := start; j < end; j++ {
		if p.toks[j].Tag == "WRB" && p.unattached(j) {
			p.tree.refAttach(j, root, RelAdvmod)
		}
	}
	return root
}

// attachPreps attaches each preposition in [start, end) to the directly
// preceding noun head (if the preposition follows that chunk) or otherwise
// to the clause root verb; its object is the next NP chunk, or the fronted
// wh chunk when stranded.
func (p *refParser) attachPreps(start, end, root int, frontedWh *chunk) {
	for i := start; i < end; i++ {
		tag := p.toks[i].Tag
		if tag != "IN" && tag != "TO" {
			continue
		}
		if !p.unattached(i) {
			continue
		}
		// Infinitival to: "to marry" — attach as aux to following verb.
		if tag == "TO" && i+1 < end && p.toks[i+1].Tag == "VB" {
			p.tree.refAttach(i, i+1, RelAux)
			continue
		}
		// Attachment site.
		site := root
		if prev := p.chunkOf(i - 1); prev != nil && prev.end == i-1 && prev.head != root {
			// Noun attachment: "members of", "mayor of". A fronted
			// preposition ("In which movies did …") has no left context
			// and falls through to the verb root.
			site = prev.head
		}
		// Object of the preposition.
		var obj *chunk
		if c := p.chunkOf(i + 1); c != nil && c.start == i+1 {
			obj = c
		}
		if obj == nil && frontedWh != nil && p.unattached(frontedWh.head) {
			obj = frontedWh // stranded: "did X star in?"
		}
		if site == root && i == start && obj != nil && obj.wh && site >= 0 {
			// Fronted preposition: prep attaches to the verb root.
			site = root
		}
		if site < 0 {
			continue
		}
		p.tree.refAttach(i, site, RelPrep)
		if obj != nil && p.unattached(obj.head) {
			p.tree.refAttach(obj.head, i, RelPobj)
		}
	}
}

// -------------------------------------------------------------- utilities

func (p *refParser) hasVerbAfter(i, end int) bool {
	for j := i + 1; j < end; j++ {
		if IsVerbTag(p.toks[j].Tag) {
			return true
		}
	}
	return false
}

func (p *refParser) hasBeBefore(verbs []int, last int) bool {
	for _, v := range verbs {
		if v < last && p.toks[v].Lemma == "be" {
			return true
		}
	}
	return false
}

func (p *refParser) firstVerbIn(start, end int) int {
	for i := start; i < end; i++ {
		if IsVerbTag(p.toks[i].Tag) {
			return i
		}
	}
	return end
}

// firstChunkBetween returns the first chunk fully inside [start, end).
func (p *refParser) firstChunkBetween(start, end int) *chunk {
	for ci := range p.chunks {
		c := &p.chunks[ci]
		if c.start >= start && c.end < end {
			return c
		}
	}
	return nil
}

// lastChunkBefore returns the last chunk ending before token end and
// starting at or after start.
func (p *refParser) lastChunkBefore(start, end int) *chunk {
	var best *chunk
	for ci := range p.chunks {
		c := &p.chunks[ci]
		if c.start >= start && c.end < end {
			best = c
		}
	}
	return best
}

func (p *refParser) unattached(i int) bool { return p.tree.Nodes[i].Head == -1 }

// refSubtree returns all node indices in the subtree rooted at i (including
// i), ascending.
func (y *DepTree) refSubtree(i int) []int {
	var out []int
	seen := make(map[int]bool) // guards against malformed (cyclic) input
	var walk func(int)
	walk = func(n int) {
		if seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		for _, c := range y.Nodes[n].Children {
			walk(c)
		}
	}
	walk(i)
	sort.Ints(out)
	return out
}

// refValidate checks tree well-formedness: exactly one root, consistent
// head/child links, acyclicity, and every node reachable from the root.
func (y *DepTree) refValidate() error {
	if len(y.Nodes) == 0 {
		return fmt.Errorf("deptree: empty tree")
	}
	roots := 0
	for i, n := range y.Nodes {
		if n.Index != i {
			return fmt.Errorf("deptree: node %d has Index %d", i, n.Index)
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
		found := false
		for _, c := range y.Nodes[n.Head].Children {
			if c == i {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("deptree: node %d missing from children of head %d", i, n.Head)
		}
	}
	if roots != 1 {
		return fmt.Errorf("deptree: %d roots, want 1", roots)
	}
	if got := len(y.refSubtree(y.Root)); got != len(y.Nodes) {
		return fmt.Errorf("deptree: only %d of %d nodes reachable from root", got, len(y.Nodes))
	}
	return nil
}

// refAttach links child to head with the given relation, maintaining the
// Children lists sorted.
func (y *DepTree) refAttach(child, head int, rel string) {
	n := &y.Nodes[child]
	n.Head = head
	n.Rel = rel
	h := &y.Nodes[head]
	pos := sort.SearchInts(h.Children, child)
	h.Children = append(h.Children, 0)
	copy(h.Children[pos+1:], h.Children[pos:])
	h.Children[pos] = child
}

// refResolveCoref performs the coreference resolution step of §4.1.3: relative
// pronouns ("that", "who", "which") inside a relative clause refer to the
// noun phrase the clause modifies, so the two corresponding arguments must
// share one vertex in the semantic query graph ("actor" and "that" in the
// running example).
//
// The returned map sends the token index of each resolvable pronoun to the
// token index of its antecedent.
func refResolveCoref(y *DepTree) map[int]int {
	out := make(map[int]int)
	for i := range y.Nodes {
		n := &y.Nodes[i]
		if n.Rel != RelRcmod || n.Head < 0 {
			continue
		}
		antecedent := n.Head
		// Every wh-pronoun inside the clause subtree corefers with the
		// antecedent.
		for _, j := range y.refSubtree(i) {
			t := y.Nodes[j]
			if (t.Tag == "WDT" || t.Tag == "WP") && j != antecedent {
				out[j] = antecedent
			}
		}
	}
	return out
}
