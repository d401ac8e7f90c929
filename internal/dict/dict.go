package dict

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

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

// LookupLemmas returns the phrase for an exact lemma sequence.
func (d *Dictionary) LookupLemmas(lemmas []string) (*Phrase, bool) {
	return d.lookup(strings.Join(lemmas, " "))
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

// Len returns the number of phrases |T|.
func (d *Dictionary) Len() int { return len(d.slots) }

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

// Decode reads the Encode format, interning predicate IRIs into g.
func Decode(r io.Reader, g *store.Graph) (*Dictionary, error) {
	d := New()
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1<<20)
	pending := make(map[string][]Entry)
	var order []string
	line := 0
	for s.Scan() {
		line++
		text := strings.TrimSpace(s.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("dict: line %d: want 3 tab-separated fields, got %d", line, len(parts))
		}
		score, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("dict: line %d: bad score: %v", line, err)
		}
		var path Path
		for _, step := range strings.Split(parts[2], ",") {
			if len(step) < 2 || (step[0] != '+' && step[0] != '-') {
				return nil, fmt.Errorf("dict: line %d: bad step %q", line, step)
			}
			id, ok := g.LookupIRI(step[1:])
			if !ok {
				return nil, fmt.Errorf("dict: line %d: unknown predicate %q", line, step[1:])
			}
			path = append(path, Step{Pred: id, Forward: step[0] == '+'})
		}
		if _, seen := pending[parts[0]]; !seen {
			order = append(order, parts[0])
		}
		pending[parts[0]] = append(pending[parts[0]], Entry{Path: path, Score: score})
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	for _, text := range order {
		d.Add(text, pending[text])
	}
	return d, nil
}
