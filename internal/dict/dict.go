package dict

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"gqa/internal/nlp"
	"gqa/internal/obs"
	"gqa/internal/store"
)

// dictWordProbes counts the inverted-index word probes of Algorithm 2.
var dictWordProbes = obs.DefaultCounter("gqa_dict_word_probes_total",
	"Inverted-index word probes (Algorithm 2 steps 1-2).")

// Entry is one candidate interpretation of a relation phrase: a predicate
// path L with its confidence probability δ(rel, L) (Equation 1, normalized
// to (0, 1]).
type Entry struct {
	Path  Path
	Score float64
}

// Phrase is a relation phrase with its ranked candidate list.
type Phrase struct {
	Text    string   // surface text, e.g. "be married to"
	Lemmas  []string // lemma sequence, e.g. [be marry to]
	Entries []Entry  // sorted by descending Score
}

// Key returns the canonical lemma key of a phrase text.
func Key(text string) string { return strings.Join(nlp.LemmatizePhrase(text), " ") }

// Dictionary is the paraphrase dictionary D (§3, Figure 3): relation
// phrases mapped to top-k predicates / predicate paths, plus the inverted
// word index used by Algorithm 2.
//
// Phrase words are interned at Add: vocab gives every phrase lemma a word
// ID, a phrase lives in a slot (slots are in insertion order), and byWord
// lists, per word ID, the slots whose phrase has that word, in insertion
// order. Algorithm 2's tie order rests on that order (core.filterMaximal
// sorts stably).
type Dictionary struct {
	phrases map[string]uint32 // lemma key → slot
	slots   []slot
	vocab   map[string]uint32 // phrase lemma → word ID
	byWord  [][]uint32        // word ID → slots of the phrases having it
}

// slot is one phrase with its words as a sorted multiset of word IDs.
type slot struct {
	phrase *Phrase
	words  []uint32
}

// New returns an empty dictionary.
func New() *Dictionary {
	return &Dictionary{
		phrases: make(map[string]uint32),
		vocab:   make(map[string]uint32),
	}
}

// Add inserts (or replaces) a phrase with its entries; entries are sorted
// by descending score. Scores must be positive. A replaced phrase keeps its
// slot: its key, hence its words, are the same.
func (d *Dictionary) Add(text string, entries []Entry) *Phrase {
	sorted := append([]Entry(nil), entries...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
	p := &Phrase{Text: text, Lemmas: nlp.LemmatizePhrase(text), Entries: sorted}
	key := strings.Join(p.Lemmas, " ") // Key(text)
	if s, exists := d.phrases[key]; exists {
		d.slots[s].phrase = p
		return p
	}
	s := uint32(len(d.slots))
	words := make([]uint32, len(p.Lemmas))
	for i, w := range p.Lemmas {
		id, ok := d.vocab[w]
		if !ok {
			id = uint32(len(d.byWord))
			d.vocab[w] = id
			d.byWord = append(d.byWord, nil)
		}
		words[i] = id
	}
	slices.Sort(words)
	for i, w := range words {
		if i == 0 || w != words[i-1] {
			d.byWord[w] = append(d.byWord[w], s)
		}
	}
	d.phrases[key] = s
	d.slots = append(d.slots, slot{phrase: p, words: words})
	return p
}

// Lookup returns the phrase whose lemma key matches text, if any.
func (d *Dictionary) Lookup(text string) (*Phrase, bool) {
	return d.lookup(Key(text))
}

func (d *Dictionary) lookup(key string) (*Phrase, bool) {
	s, ok := d.phrases[key]
	if !ok {
		return nil, false
	}
	return d.slots[s].phrase, true
}

// Probe is the inverted-index probe of Algorithm 2 (steps 1–2): the word
// ID of w's untagged lemma, if some phrase has that word. SlotsWith lists
// those phrases.
func (d *Dictionary) Probe(w string) (uint32, bool) {
	dictWordProbes.Inc()
	return d.WordID(nlp.Lemma(strings.ToLower(w), ""))
}

// WordID returns the word ID of a phrase lemma, if some phrase has it.
func (d *Dictionary) WordID(lemma string) (uint32, bool) {
	id, ok := d.vocab[lemma]
	return id, ok
}

// SlotsWith returns the slots of the phrases having word w, in insertion
// order. The caller must not modify it.
func (d *Dictionary) SlotsWith(w uint32) []uint32 { return d.byWord[w] }

// Slot returns the phrase in slot s and its words as a sorted multiset of
// word IDs, which the caller must not modify.
func (d *Dictionary) Slot(s uint32) (*Phrase, []uint32) {
	return d.slots[s].phrase, d.slots[s].words
}

// Phrases returns all phrases in insertion order.
func (d *Dictionary) Phrases() []*Phrase {
	out := make([]*Phrase, len(d.slots))
	for i, s := range d.slots {
		out[i] = s.phrase
	}
	return out
}

// ---------------------------------------------------------- serialization

// Encode writes the dictionary in a line-oriented text format:
//
//	phrase text<TAB>score<TAB>±<predIRI>[,±<predIRI>…]
//
// one line per entry, suitable for the gqa-mine CLI and for versioning the
// mined dictionary alongside a dataset.
func (d *Dictionary) Encode(w io.Writer, g *store.Graph) error {
	bw := bufio.NewWriter(w)
	for _, p := range d.Phrases() {
		for _, e := range p.Entries {
			steps := make([]string, len(e.Path))
			for i, s := range e.Path {
				sign := "+"
				if !s.Forward {
					sign = "-"
				}
				steps[i] = sign + g.Term(s.Pred).Value()
			}
			if _, err := fmt.Fprintf(bw, "%s\t%.6f\t%s\n", p.Text, e.Score, strings.Join(steps, ",")); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// minScore is the least score a dictionary file may hold: Encode writes
// six decimals, and a smaller score would read back as 0. Mine's scores
// are in (0, 1], a phrase's best path at 1.
const minScore = 1e-6

// onGrid returns the score a dictionary file holds for x: what its six-decimal
// rendering parses back to, and never less than minScore. Mine puts every
// score there, so a dictionary decoded from Encode's text is the mined one.
func onGrid(x float64) float64 {
	y, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 6, 64), 64)
	return max(y, minScore)
}

// Decode reads the Encode format, resolving predicate IRIs through g. It
// refuses what Mine cannot produce, naming the line and the field: a score
// outside [1e-6, 1] (NaN and the infinities included), a phrase with
// no words, a path of more than ThetaMax steps, a phrase and path given
// twice, and two phrase texts with one lemma key, which Add would fold
// into one slot.
func Decode(r io.Reader, g *store.Graph) (*Dictionary, error) {
	d := New()
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1<<20)
	pending := make(map[string][]Entry)
	var order []string
	type seen struct {
		text string
		line int
	}
	keys := make(map[string]seen) // lemma key → its phrase text's first line
	paths := make(map[string]int) // lemma key and path → line
	line := 0
	for s.Scan() {
		line++
		// Only the right end is trimmed, so an empty first field stays a
		// phrase with no words, not a missing field.
		text := strings.TrimRightFunc(s.Text(), unicode.IsSpace)
		if t := strings.TrimSpace(text); t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("dict: line %d: want 3 tab-separated fields, got %d", line, len(parts))
		}
		phrase, key := parts[0], Key(parts[0])
		if key == "" {
			return nil, fmt.Errorf("dict: line %d: phrase %q has no words", line, phrase)
		}
		if k, ok := keys[key]; !ok {
			keys[key] = seen{phrase, line}
		} else if k.text != phrase {
			return nil, fmt.Errorf("dict: line %d: phrase %q has the lemma key %q of phrase %q (line %d)", line, phrase, key, k.text, k.line)
		}
		score, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("dict: line %d: bad score: %v", line, err)
		}
		if !(score >= minScore && score <= 1) {
			return nil, fmt.Errorf("dict: line %d: score %s is not in [%g, 1]", line, parts[1], minScore)
		}
		steps := strings.Split(parts[2], ",")
		if len(steps) > ThetaMax {
			return nil, fmt.Errorf("dict: line %d: path of %d steps, at most %d", line, len(steps), ThetaMax)
		}
		var path Path
		for _, step := range steps {
			if len(step) < 2 || (step[0] != '+' && step[0] != '-') {
				return nil, fmt.Errorf("dict: line %d: bad step %q", line, step)
			}
			id, ok := g.LookupIRI(step[1:])
			if !ok {
				return nil, fmt.Errorf("dict: line %d: unknown predicate %q", line, step[1:])
			}
			path = append(path, Step{Pred: id, Forward: step[0] == '+'})
		}
		pk := key + "\t" + path.Key()
		if at, ok := paths[pk]; ok {
			return nil, fmt.Errorf("dict: line %d: path %s of phrase %q is on line %d too", line, parts[2], phrase, at)
		}
		paths[pk] = line
		if _, seen := pending[phrase]; !seen {
			order = append(order, phrase)
		}
		pending[phrase] = append(pending[phrase], Entry{Path: path, Score: score})
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	for _, text := range order {
		d.Add(text, pending[text])
	}
	return d, nil
}
