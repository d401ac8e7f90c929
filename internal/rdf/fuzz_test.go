package rdf

import "testing"

// FuzzParseNTriples: the decoder must never panic; on success, re-encoding
// and re-parsing must be a fixed point.
func FuzzParseNTriples(f *testing.F) {
	f.Add(`<http://e/s> <http://e/p> <http://e/o> .`)
	f.Add(`<http://e/s> <http://e/p> "lit"@en .`)
	f.Add(`<http://e/s> <http://e/p> "xA"^^<http://t> .`)
	f.Add(`_:b <http://e/p> _:c .`)
	f.Add(`# comment`)
	f.Add(`malformed`)
	f.Add(`<http://e/s> <http://e/p> "A\U0001F600" .`)
	f.Add(`<http://e/s> <http://e/p> "\uD800" .`)     // surrogate: must error, not U+FFFD
	f.Add(`<http://e/s> <http://e/p> "\U00110000" .`) // beyond U+10FFFF: must error
	f.Add(`<http://e/s> <http://e/p> "x"@-en .`)      // lang tag must start with a letter
	f.Add(`<http://e/s> <http://e/p> "x"@1en .`)
	f.Add(`<http://e/s> <http://e/p> "x"@en-US .`)
	f.Fuzz(func(t *testing.T, line string) {
		ts, err := parseAll(line)
		if err != nil {
			return
		}
		for _, tr := range ts {
			again, err := parseAll(tr.String())
			if err != nil {
				t.Fatalf("re-parse of %q failed: %v", tr.String(), err)
			}
			if len(again) != 1 || again[0] != tr {
				t.Fatalf("round trip changed %q → %q", tr.String(), again)
			}
		}
	})
}
