package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseError describes a syntax error while reading N-Triples input.
type ParseError struct {
	Line int    // 1-based line number
	Col  int    // 1-based byte offset in the line
	Msg  string // what went wrong
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Decoder reads triples from N-Triples text, one statement per line.
// Comment lines (starting with '#') and blank lines are skipped.
type Decoder struct {
	s    *bufio.Scanner
	line int
}

// NewDecoder returns a Decoder reading from r. Lines up to 1 MiB are
// supported.
func NewDecoder(r io.Reader) *Decoder {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Decoder{s: s}
}

// Decode returns the next triple, or io.EOF when the input is exhausted.
func (d *Decoder) Decode() (Triple, error) {
	for d.s.Scan() {
		d.line++
		line := strings.TrimSpace(d.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseLine(line, d.line)
		if err != nil {
			return Triple{}, err
		}
		return t, nil
	}
	if err := d.s.Err(); err != nil {
		return Triple{}, err
	}
	return Triple{}, io.EOF
}

// Write serializes triples to w in N-Triples syntax.
func Write(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range triples {
		if _, err := bw.WriteString(t.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type lineParser struct {
	s    string
	pos  int
	line int
}

func parseLine(s string, line int) (Triple, error) {
	p := &lineParser{s: s, line: line}
	subj, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.skipSpace()
	pred, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.skipSpace()
	obj, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.skipSpace()
	if p.pos >= len(p.s) || p.s[p.pos] != '.' {
		return Triple{}, p.errf("expected terminating '.'")
	}
	p.pos++
	p.skipSpace()
	if p.pos != len(p.s) {
		return Triple{}, p.errf("trailing content after '.'")
	}
	t := Triple{Subject: subj, Predicate: pred, Object: obj}
	if !t.Valid() {
		return Triple{}, p.errf("invalid triple positions (subject=%s predicate=%s)", subj.Kind(), pred.Kind())
	}
	return t, nil
}

func (p *lineParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.pos + 1, Msg: fmt.Sprintf(format, args...)}
}

// errAt is errf pointing at an explicit byte offset — for errors found
// mid-scan (escape sequences, language tags) where p.pos still holds the
// token start rather than the offending character.
func (p *lineParser) errAt(pos int, format string, args ...any) error {
	return &ParseError{Line: p.line, Col: pos + 1, Msg: fmt.Sprintf(format, args...)}
}

func (p *lineParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *lineParser) term() (Term, error) {
	if p.pos >= len(p.s) {
		return Term{}, p.errf("unexpected end of line")
	}
	switch p.s[p.pos] {
	case '<':
		return p.iri()
	case '"':
		return p.literal()
	case '_':
		return p.blank()
	}
	return Term{}, p.errf("unexpected character %q", p.s[p.pos])
}

func (p *lineParser) iri() (Term, error) {
	if p.pos >= len(p.s) || p.s[p.pos] != '<' {
		return Term{}, p.errf("expected '<' to open an IRI")
	}
	end := strings.IndexByte(p.s[p.pos:], '>')
	if end < 1 {
		return Term{}, p.errf("unterminated IRI")
	}
	iri := p.s[p.pos+1 : p.pos+end]
	if iri == "" {
		return Term{}, p.errf("empty IRI")
	}
	if strings.ContainsAny(iri, " \t\"<") {
		return Term{}, p.errf("IRI contains illegal character")
	}
	p.pos += end + 1
	return NewIRI(iri), nil
}

func (p *lineParser) blank() (Term, error) {
	if p.pos+1 >= len(p.s) || p.s[p.pos+1] != ':' {
		return Term{}, p.errf("malformed blank node")
	}
	i := p.pos + 2
	start := i
	for i < len(p.s) && !isTermEnd(p.s[i]) {
		i++
	}
	if i == start {
		return Term{}, p.errf("empty blank node label")
	}
	label := p.s[start:i]
	p.pos = i
	return NewBlank(label), nil
}

func isTermEnd(c byte) bool { return c == ' ' || c == '\t' }

func (p *lineParser) literal() (Term, error) {
	// Scan the quoted lexical form, honoring escapes.
	var b strings.Builder
	i := p.pos + 1
	for {
		if i >= len(p.s) {
			return Term{}, p.errf("unterminated literal")
		}
		c := p.s[i]
		if c == '"' {
			i++
			break
		}
		if c != '\\' {
			b.WriteByte(c)
			i++
			continue
		}
		if i+1 >= len(p.s) {
			return Term{}, p.errf("dangling escape")
		}
		switch p.s[i+1] {
		case 't':
			b.WriteByte('\t')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case 'u', 'U':
			n := 4
			if p.s[i+1] == 'U' {
				n = 8
			}
			if i+2+n > len(p.s) {
				return Term{}, p.errf("truncated \\%c escape", p.s[i+1])
			}
			v, err := strconv.ParseUint(p.s[i+2:i+2+n], 16, 32)
			if err != nil {
				return Term{}, p.errAt(i, "bad \\%c escape: %v", p.s[i+1], err)
			}
			// Reject escapes that do not name a Unicode scalar value.
			// WriteRune would silently substitute U+FFFD, so a surrogate
			// or out-of-range escape would round-trip to a different
			// document instead of an error.
			if v >= 0xD800 && v <= 0xDFFF {
				return Term{}, p.errAt(i, "\\%c escape %04X is a UTF-16 surrogate, not a Unicode scalar value", p.s[i+1], v)
			}
			if v > 0x10FFFF {
				return Term{}, p.errAt(i, "\\%c escape %X is beyond U+10FFFF", p.s[i+1], v)
			}
			b.WriteRune(rune(v))
			i += 2 + n
			continue
		default:
			return Term{}, p.errf("unknown escape \\%c", p.s[i+1])
		}
		i += 2
	}
	lex := b.String()
	// Optional language tag or datatype.
	if i < len(p.s) && p.s[i] == '@' {
		start := i + 1
		j := start
		for j < len(p.s) && (isAlnum(p.s[j]) || p.s[j] == '-') {
			j++
		}
		if j == start {
			return Term{}, p.errf("empty language tag")
		}
		// BCP 47: the primary subtag is alphabetic, so the tag must open
		// with a letter ("@-en" and "@1en" are malformed).
		if !isAlpha(p.s[start]) {
			return Term{}, p.errAt(start, "language tag must start with a letter")
		}
		p.pos = j
		return NewLangLiteral(lex, p.s[start:j]), nil
	}
	if i+1 < len(p.s) && p.s[i] == '^' && p.s[i+1] == '^' {
		p.pos = i + 2
		dt, err := p.iri()
		if err != nil {
			return Term{}, err
		}
		return NewTypedLiteral(lex, dt.Value()), nil
	}
	p.pos = i
	return NewLiteral(lex), nil
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isAlnum(c byte) bool {
	return isAlpha(c) || c >= '0' && c <= '9'
}
