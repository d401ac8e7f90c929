package linker

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// vocabCheck interns one token stream into the table and the reference
// (vocab_reference_test.go) side by side, and counts the cases the table's
// proof has: a repeat, a token with a multi-byte rune, a token that is a
// prefix of another, and the index's rehashes past its first.
type vocabCheck struct {
	v     vocab
	words strings.Builder
	ref   *refVocab
	seen  []string // the distinct tokens, in ID order

	repeats, multiByte, prefixes, rehashes int
}

func newVocabCheck() *vocabCheck { return &vocabCheck{ref: newRefVocab()} }

// intern adds t to both and compares the IDs they give it.
func (c *vocabCheck) intern(t string) error {
	size := len(c.v.index)
	got, want := c.v.intern(&c.words, t), c.ref.tokenID(t)
	if size > 0 && len(c.v.index) != size {
		c.rehashes++
	}
	if got != want {
		return fmt.Errorf("intern(%q) = %d, reference %d", t, got, want)
	}
	if int(want) < len(c.seen) {
		c.repeats++
		return nil
	}
	for _, s := range c.seen {
		if s != "" && t != "" && (strings.HasPrefix(s, t) || strings.HasPrefix(t, s)) {
			c.prefixes++
			break
		}
	}
	if utf8.RuneCountInString(t) < len(t) {
		c.multiByte++
	}
	c.seen = append(c.seen, t)
	return nil
}

// check holds the table to the reference: its length, every token's text
// and lookup, the index's shape (a power of two at most ¾ full), and a
// miss for every probe the reference lacks — each token with a byte cut
// off either end or one added, so prefixes of known tokens are probed.
func (c *vocabCheck) check() error {
	if c.v.len() != len(c.ref.vocab) {
		return fmt.Errorf("%d tokens, reference %d", c.v.len(), len(c.ref.vocab))
	}
	if n := len(c.v.index); n > 0 && (bits.OnesCount(uint(n)) != 1 || 4*c.v.len() > 3*n) {
		return fmt.Errorf("an index of %d slots for %d tokens", n, c.v.len())
	}
	for t, id := range c.ref.vocab {
		if w := c.v.word(id); w != t {
			return fmt.Errorf("token %d is %q, reference %q", id, w, t)
		}
		if got, ok := c.v.lookup(t); !ok || got != id {
			return fmt.Errorf("lookup(%q) = %d, %v; reference %d", t, got, ok, id)
		}
		for _, p := range []string{t + "a", t + "\x00", "a" + t} {
			if err := c.miss(p); err != nil {
				return err
			}
		}
		if t != "" {
			if err := c.miss(t[:len(t)-1]); err != nil {
				return err
			}
			if err := c.miss(t[1:]); err != nil {
				return err
			}
		}
	}
	return nil
}

// miss requires that p, unless the reference has it, is not found.
func (c *vocabCheck) miss(p string) error {
	if _, ok := c.ref.vocab[p]; ok {
		return nil
	}
	if id, ok := c.v.lookup(p); ok {
		return fmt.Errorf("lookup(%q) = %d, a token the reference lacks", p, id)
	}
	return nil
}

// vocabAlphabet makes tokens that repeat, spell multi-byte runes and are
// prefixes of one another; a numeric suffix makes enough distinct ones
// for several rehashes.
var vocabAlphabet = []string{"a", "ab", "abc", "city", "cities", "é", "zürich", "zür", "東京", "0012", "00"}

// TestQuickVocab: random token streams give the table the reference's
// IDs, in first-seen order, and every token the reference lacks misses.
// It fails unless the streams met a repeat, a multi-byte rune, a token
// that is a prefix of another, and a stream that rehashed at least three
// times past the index's first size.
func TestQuickVocab(t *testing.T) {
	var repeats, multiByte, prefixes, rehashed int
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := newVocabCheck()
		for range r.Intn(200) {
			tok := vocabAlphabet[r.Intn(len(vocabAlphabet))]
			if r.Intn(2) == 0 {
				tok = fmt.Sprintf("%s%d", tok, r.Intn(40))
			}
			if err := c.intern(tok); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		if err := c.check(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		repeats, multiByte, prefixes = repeats+c.repeats, multiByte+c.multiByte, prefixes+c.prefixes
		if c.rehashes >= 3 {
			rehashed++
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	t.Logf("repeats %d, multi-byte tokens %d, prefix tokens %d, streams with 3+ rehashes %d", repeats, multiByte, prefixes, rehashed)
	for name, n := range map[string]int{
		"a repeated token": repeats, "a multi-byte rune": multiByte,
		"a token that is a prefix of another": prefixes, "three rehashes in one stream": rehashed,
	} {
		if n == 0 {
			t.Errorf("no stream met %s", name)
		}
	}
}

// FuzzVocab: bytes split at every zero byte are a token stream; the table
// gives the reference's IDs and misses every token the reference lacks.
func FuzzVocab(f *testing.F) {
	f.Add([]byte("city\x00cities\x00city\x00z\xc3\xbcrich\x00z\xc3\xbcr"))
	f.Add([]byte("\x00a\x00\x00ab"))
	var long []byte
	for i := range 40 {
		long = fmt.Appendf(long, "t%d\x00", i%30)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newVocabCheck()
		for _, tok := range strings.Split(string(data), "\x00") {
			if err := c.intern(tok); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.check(); err != nil {
			t.Fatal(err)
		}
	})
}
