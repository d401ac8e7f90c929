package store

import (
	"encoding/binary"
	"fmt"

	"gqa/internal/rdf"
)

// The term table's reference: the dictionary as it was before it became
// columns — a []rdf.Term and a map keyed by rdf.Term.Key() — kept verbatim
// so the table can be held to it on the workload KBs (TestTermTableOnKBs),
// under a quick property (TestQuickTermTable) and a fuzz target
// (FuzzTermTable). refTerms holds the fields of the old Graph that
// Intern, Lookup and Term read; Intern's growth of the graph's
// insertion-order lists, which are not the dictionary, is left out.
type refTerms struct {
	terms []rdf.Term
	index map[string]ID // rdf.Term.Key() → ID

	rdfType, subClass, labelPred ID
}

func newRefTerms() *refTerms {
	return &refTerms{index: make(map[string]ID), rdfType: None, subClass: None, labelPred: None}
}

// Intern returns the ID for term, assigning a fresh one on first sight.
func (g *refTerms) Intern(t rdf.Term) ID {
	key := t.Key()
	if id, ok := g.index[key]; ok {
		return id
	}
	id := ID(len(g.terms))
	g.terms = append(g.terms, t)
	g.index[key] = id
	switch t.Value() {
	case rdf.RDFType:
		g.rdfType = id
	case rdf.RDFSSubClass:
		g.subClass = id
	case rdf.RDFSLabel:
		g.labelPred = id
	}
	return id
}

// Lookup returns the ID for term if it has been interned.
func (g *refTerms) Lookup(t rdf.Term) (ID, bool) {
	id, ok := g.index[t.Key()]
	return id, ok
}

// Term returns the term for id. It panics on out-of-range IDs, which always
// indicate a programming error.
func (g *refTerms) Term(id ID) rdf.Term { return g.terms[id] }

// refIndexDup is the term-index half of the old assembleFrozen: the first
// decoded term whose key repeats an earlier one, and that one, or -1.
func refIndexDup(terms []rdf.Term) (int, ID) {
	index := make(map[string]ID, len(terms))
	for i, t := range terms {
		k := t.Key()
		if prev, dup := index[k]; dup {
			return i, prev
		}
		index[k] = ID(i)
	}
	return -1, None
}

func refEncodeFrozenTerms(terms []rdf.Term) []byte {
	tb := binary.LittleEndian.AppendUint32(nil, uint32(len(terms)))
	for _, t := range terms {
		tb = append(tb, byte(t.Kind()))
		for _, s := range [3]string{t.Value(), t.Datatype(), t.Lang()} {
			tb = binary.LittleEndian.AppendUint32(tb, uint32(len(s)))
			tb = append(tb, s...)
		}
	}
	return tb
}

// refDecodeFrozenTerms decodes the terms payload, which must hold exactly
// want records.
func refDecodeFrozenTerms(b []byte, want uint64) ([]rdf.Term, error) {
	count := uint64(binary.LittleEndian.Uint32(b))
	if count != want {
		return nil, fmt.Errorf("%d terms, meta says %d", count, want)
	}
	// Every record is at least 13 bytes (kind + three length fields), so an
	// inflated count is rejected before any allocation proportional to it.
	if count*13 > uint64(len(b)-4) {
		return nil, fmt.Errorf("term count %d exceeds payload size %d", count, len(b))
	}
	var terms []rdf.Term
	if count > 0 {
		terms = make([]rdf.Term, 0, count)
	}
	off := 4
	readStr := func() (string, bool) {
		if off+4 > len(b) {
			return "", false
		}
		l := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if l > len(b)-off {
			return "", false
		}
		s := string(b[off : off+l])
		off += l
		return s, true
	}
	for i := 0; i < int(count); i++ {
		if off >= len(b) {
			return nil, fmt.Errorf("term %d truncated", i)
		}
		kind := b[off]
		off++
		value, ok1 := readStr()
		datatype, ok2 := readStr()
		lang, ok3 := readStr()
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("term %d truncated", i)
		}
		var t rdf.Term
		switch rdf.Kind(kind) {
		case rdf.KindIRI, rdf.KindBlank:
			if datatype != "" || lang != "" {
				return nil, fmt.Errorf("term %d: non-literal carries datatype/lang", i)
			}
			if rdf.Kind(kind) == rdf.KindIRI {
				t = rdf.NewIRI(value)
			} else {
				t = rdf.NewBlank(value)
			}
		case rdf.KindLiteral:
			switch {
			case datatype != "" && lang != "":
				return nil, fmt.Errorf("term %d: literal carries both datatype and lang", i)
			case lang != "":
				t = rdf.NewLangLiteral(value, lang)
			case datatype != "":
				t = rdf.NewTypedLiteral(value, datatype)
			default:
				t = rdf.NewLiteral(value)
			}
		default:
			return nil, fmt.Errorf("term %d has unknown kind %d", i, kind)
		}
		terms = append(terms, t)
	}
	if off != len(b) {
		return nil, fmt.Errorf("%d trailing bytes", len(b)-off)
	}
	return terms, nil
}
